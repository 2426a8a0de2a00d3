"""transportlab: numerical laboratory for transport maps between
log-subharmonic sources and strongly log-concave targets."""

# every command draws from numpy.random.default_rng; numpy loads that
# submodule lazily, so load it with the package rather than inside the
# first check that draws
import numpy.random  # noqa: F401

__version__ = "0.1.0"
