"""Classification of Boolean function windows under AGL(m,2) and
Reed-Muller covering-radius computation.

The package root imports nothing: each module is imported by its own name,
and ``rmcover.cli`` loads the ones a command runs.
"""

__version__ = "0.1.0"
