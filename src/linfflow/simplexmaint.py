"""Empty on purpose: the mirror-prox dual's reference recursions live in
``tests/simplex_maintainer.py``.

``ReferenceSimplex``, the dense simplex recursion that the folded
``mirrorprox.phase_iterates`` kernel is tested against, and
``SimplexMaintainer``, the paper's implicit structure for it (measured slower
than the dense dual at every size), serve only the tests.  The module stays
importable because the benchmark's span tracer imports every module it lists
by name (``linfbench/spans.py``'s ``MODULES``).
"""
