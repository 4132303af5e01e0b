"""heislab: numerical laboratory for calculus and capacity estimates on
the Heisenberg group, with a finite-difference solver for two
Sobolev-type evolution equations.

Importing heislab or any of its modules loads numpy but no scipy module,
and only the simulator uses scipy: scipy.sparse loads at its first run."""

__version__ = "0.1.0"
