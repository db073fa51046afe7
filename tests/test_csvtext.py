import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifkernels
from ifkernels import csvtext
def formatted(data):
    """The text ``csvtext.format_rows`` gives the rows of one array, joined."""
    return b"".join(csvtext.format_rows([data]))


def per_field(data):
    """The CSV lines of ``data`` with one ``format(x, ".17g")`` call per field."""
    rows = np.atleast_2d(data).tolist()
    return "".join(",".join([format(x, ".17g") for x in row]) + "\n" for row in rows).encode()


def _below_power_of_ten(k):
    """The largest double below 10^k."""
    x = float(Fraction(10) ** k)
    return math.nextafter(x, 0) if Fraction(x) >= Fraction(10) ** k else x


def _ties():
    """Doubles m 2^-e with 18 significant digits, the last a 5: exact ties at 17."""
    ties = [m * 2.0**-e for e in range(1, 80) for m in range(1, 200, 2)]
    return [x for x in ties if len(Decimal(x).normalize().as_tuple().digits) == 18]


def _crafted():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e16, 1e17, 9.99999999999999999e-5, 0.1, 0.3, 123.0,
              12345678901234567.0, 99999999999999984.0, 1e-100, 1.2345678901234567e-283, 1e-284,
              1e-283, 9.9999999999999e-284, 0.5, 2.5, 1.5e-5]
    for e in range(-323, 309):
        power = float(f"1e{e}")
        values += [power, math.nextafter(power, 0), math.nextafter(power, math.inf)]
    values += [_below_power_of_ten(k) for k in range(-307, 309)]
    values += _ties()
    values = np.array(values)
    return np.concatenate([values, -values])


class TestExactness:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=30))
    def test_every_float64_as_percent_17g(self, values):
        data = np.array(values, dtype=float)
        assert formatted(data[None]) == per_field(data[None])
        assert formatted(data[:, None]) == per_field(data[:, None])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20241)
        data = rng.integers(0, 2**64, size=(10**4, 10), dtype=np.uint64, endpoint=False)
        data = data.view(np.float64)
        assert formatted(data) == per_field(data)

    def test_crafted_values(self):
        # powers of ten and their neighbours (14 doubles below a power of ten
        # round up into the next decade), exact ties, three-digit exponents
        values = _crafted()
        assert formatted(values[:, None]) == per_field(values[:, None])

    def test_trajectory_like_values_take_no_fallback(self, monkeypatch):
        # the fast path proves every rounding of values in [1e-12, 1e3)
        def forbidden(*args):
            raise AssertionError("a trajectory value fell back to a per-element format")

        rng = np.random.default_rng(7)
        data = rng.standard_normal((500, 12)) * 10.0 ** rng.integers(-12, 3, (500, 12))
        data[:, 0] = np.arange(500)
        data[:, 1] = np.arange(500) * 0.1
        want = per_field(data)
        monkeypatch.setattr(csvtext, "_per_element", forbidden)
        assert formatted(data) == want


class TestLayout:
    def test_integer_steps_print_as_percent_d(self):
        steps = np.concatenate([np.arange(20001), [2**40, 10**15, 9 * 10**15 + 7, 2**53]])
        assert formatted(steps[:, None].astype(float)) == "".join(
            "%d\n" % s for s in steps).encode()

    @pytest.mark.parametrize("cols", [1, 3, 8])
    def test_rows_split_over_slices(self, monkeypatch, cols):
        # 7-float slices: several rows per slice, or one row wider than a slice
        monkeypatch.setattr(csvtext, "SLICE", 7)
        data = np.random.default_rng(cols).standard_normal((11, cols))
        assert formatted(data) == per_field(data)

    def test_arrays_regrouped_into_slices(self, monkeypatch):
        # 3-row slices cut across arrays of 2, 4, 0 and 5 rows; only the last
        # slice is shorter
        monkeypatch.setattr(csvtext, "SLICE", 3 * 4)
        data = np.random.default_rng(3).standard_normal((11, 4))
        slices = list(csvtext.format_rows([data[:2], data[2:6], data[6:6], data[6:]]))
        assert [text.count(b"\n") for text in slices] == [3, 3, 3, 2]
        assert b"".join(slices) == per_field(data)

    def test_not_imported_by_extract(self, tmp_path):
        # extract and compare write no trajectory CSV; propagate loads the formatter
        code = textwrap.dedent("""
            import sys
            from ifkernels.cli import cli_main
            out = sys.argv[1]
            with open(out + ".cfg", "w") as fh:
                from ifkernels.config import default_config_text
                fh.write(default_config_text())
            assert cli_main(["extract", "--config", out + ".cfg", "--out", out, "--rmax", "2"]) == 0
            kernels = out + "/kernels.txt"
            argv = ["compare", "--kernels-a", kernels, "--kernels-b", kernels, "--out", out]
            assert cli_main(argv) == 0
            assert "ifkernels.csvtext" not in sys.modules
            argv = ["propagate", "--config", out + ".cfg", "--kernels", kernels, "--out", out]
            assert cli_main(argv) == 0
            assert "ifkernels.csvtext" in sys.modules
        """)
        src = os.path.dirname(os.path.dirname(ifkernels.__file__))
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
