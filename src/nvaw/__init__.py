"""nvaw: exact workbench for finite-dimensional nonlocal vertex algebras."""

from .series import Q, Series, window_equal, Eq, EqResult
