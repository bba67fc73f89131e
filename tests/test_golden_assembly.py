"""Golden digest of every assembled contraction and De Rham matrix.

The digest was recorded before the per-column builders were replaced by
one stencil-driven assembler, so it pins the bases, the matrix entries
and their order for the Koszul, De Rham, Berezinian and specialized
complexes and for the local and Laurent models of the Bott tables.  The
model matrices are hashed with the parities of their source and target
bases rather than the basis entries, so the digest does not depend on
the class that stores a model monomial.
"""

import hashlib
import json

from skos.bott import laurent_basis, laurent_matrix, local_basis, local_matrix
from skos.complexes import build_berezinian, build_derham, build_koszul, specialize_koszul

GOLDEN = "9c0c645ec1ef6d46293e0921df81df000b64574b0a5cc000ffab5ad1594c5ec5"


def _omegas(a):
    return ((2,) * a, tuple(range(-2, a - 2)), (6, 10, 15, 0)[:a])


def _complex_lines():
    for a in range(5):
        for b in range(5 - a):
            for n in range(6):
                for C in (build_koszul(a, b, n), build_derham(a, b, n), build_berezinian(a, b, n, 4)):
                    yield json.dumps(C.to_record(), sort_keys=True)
            for even in _omegas(a):
                yield json.dumps(specialize_koszul(a, b, even + (0,) * b).to_record(), sort_keys=True)


def _model_line(mat, src, dst):
    parities = ([e.parity for e in src], [e.parity for e in dst])
    return repr((mat.rows, mat.cols, mat.triplets(), parities))


def _model_lines():
    for m in range(1, 4):
        for n in range(min(2, 4 - m) + 1):
            for r in range(-4, 3):
                for p in range(1, 5):
                    yield _model_line(
                        local_matrix(m, n, r, p), local_basis(m, n, p, r), local_basis(m, n, p - 1, r)
                    )
    for n in range(5):
        for p in range(1, 5):
            yield _model_line(laurent_matrix(n, p), laurent_basis(n, p), laurent_basis(n, p - 1))


def test_assembled_matrices_digest():
    lines = list(_complex_lines()) + list(_model_lines())
    assert len(lines) == 559
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN
