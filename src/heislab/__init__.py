"""heislab: numerical laboratory for calculus and capacity estimates on
the Heisenberg group, with a finite-difference solver for two
Sobolev-type evolution equations.

Importing heislab or any of its modules loads numpy but no scipy module:
scipy.integrate and scipy.special load at the first quadrature and
scipy.sparse at the first simulator run."""

__version__ = "0.1.0"
