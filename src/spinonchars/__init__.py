"""Exact-arithmetic level-1 affine sl(n) characters: bosonic lattice sums,
fermionic spinon cuts, and Yangian border-strip decompositions, plus the
bijections tying the combinatorial labels together.

The package root exports nothing: import the module that holds a name, so
that each import loads only that module and what it imports."""
