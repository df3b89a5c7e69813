"""Exact arithmetic for highly symmetric Calabi-Yau pencils in Grassmannians.

The package constructs the one-parameter hypersurface pencils on G(r,n)
attached to arrow partitions, counts their points over prime fields by
Schubert-cell enumeration, computes Hasse-Witt invariants from the local
period expansion, and measures Hodge/deformation dimensions through exact
graded linear algebra in Jacobian and generalized Griffiths rings.

Everything is exact: rationals are arbitrary precision, prime fields are
integer residues, and no floating point enters any computation.

The layers are the public API: import each name from its layer, as in
`from grasspencils.pointcount import count_table`.  `import grasspencils`
loads no layer.
"""

__version__ = "0.1.0"
