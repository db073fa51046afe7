"""Exception types shared across the package.

An error is named by the code that begins its message; the class decides
only the CLI's exit status.  The codes and their exit statuses:

=========================  ====  =============================================
code                       exit  raised for
=========================  ====  =============================================
``parse``                  1     a malformed or inconsistent config or kernel
                                 file, or one that is not UTF-8 text
``version``                1     an unsupported kernel-file ``format_version``
``range``                  1     a Catalan or Dyck semilength out of range
``dim_mismatch``           1     operands of incompatible dimensions
``dt_mismatch``            1     kernel sets or a kernel file and a config
                                 that differ in dt
``splitting_mismatch``     1     a table or kernel set of another splitting
``eta_missing``            1     an eta table shorter than a path sum needs
``size_limit``             1     a dense array above ``pathsum.SIZE_LIMIT``
``non_finite``             1     an input that is not finite (a config value,
                                 a system, a kernel file)
``<key>``, ``--<option>``  1     a bad config value, library argument or CLI
                                 option, named by its key: a config section
                                 (``system``, ``bath``, ``grid``,
                                 ``initial_state``) or field (``run.flavor``),
                                 a parameter (``splitting``, ``flavor``,
                                 ``dt``, ``aux0``, ``midpoint``,
                                 ``termination``, ``order``, ``tau``,
                                 ``steps``, ``threshold``) or an option
                                 (``--out``, ``--rmax``, ``--steps``)
``io``                     1     a file that cannot be read or written (an
                                 OSError, coded by the CLI)
``pathsum_budget``         2     a path sum over the configured budget
``aux0_singular``          2     an ill-conditioned terminal auxiliary matrix
``propagation_diverged``   2     a propagated map that is not finite
``non_finite``             2     a computed result that is not finite (eta
                                 coefficients, influence factors, a path sum,
                                 solved kernels)
``memory``                 2     an allocation the machine cannot make (a
                                 MemoryError, coded by the CLI)
=========================  ====  =============================================
"""


class ValidationError(ValueError):
    """Malformed or inconsistent input data (exit 1)."""


class NumericalError(RuntimeError):
    """A computation could not be carried out at the requested accuracy/scale (exit 2)."""
