"""The adjoint, the Hermitian part and the Schatten norm of a spectrum have
one definition each, in linalg.py, and the tuple product has one, in
tuples.py.  This test fails when another module of the package writes one
of them out again: np.conj of a transpose, a (M + M*)/2 or a function
named for a Hermitian part, a (sum s^p)^(1/p) or a function named for a
spectrum's Schatten norm, or an outer matmul X[:, None] @ Y[None] of one
stack against another."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphertrans"

_TRANSPOSES = {"transpose", "swapaxes"}
_KERNEL_NAMES = re.compile(r"_?(real_parts?|hermitian_parts?|batch_schatten|"
                           r"schatten_of_spectra|schatten_from_singulars)")


def _name(node) -> str | None:
    """The called or read name of a Name or Attribute node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_transpose(node) -> bool:
    return any((isinstance(n, ast.Attribute) and n.attr == "T")
               or (isinstance(n, ast.Call) and _name(n.func) in _TRANSPOSES)
               for n in ast.walk(node))


def _is_conj_of_transpose(node) -> bool:
    return (isinstance(node, ast.Call) and _name(node.func) in ("conj", "conjugate")
            and any(_is_transpose(arg) for arg in node.args))


def _is_adjoint(node) -> bool:
    return _is_conj_of_transpose(node) or (
        isinstance(node, ast.Call) and _name(node.func) == "adjoint")


def _is_hermitian_part(node) -> bool:
    """(X + adjoint(X)) / 2, in either order of the sum."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
            and (_is_adjoint(node.left.left) or _is_adjoint(node.left.right)))


def _is_spectrum_norm(node) -> bool:
    """(... sum(...) ...) ** (1 / p)."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
            and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1
            and any(isinstance(n, ast.Call) and _name(n.func) == "sum"
                    for n in ast.walk(node.left)))


def _stack_index(node) -> list:
    """The index of a subscript without its leading ellipsis."""
    if not isinstance(node, ast.Subscript):
        return []
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    if index and isinstance(index[0], ast.Constant) and index[0].value is Ellipsis:
        return index[1:]
    return index


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_outer_matmul(node) -> bool:
    """X[..., :, None] @ Y[..., None]: every matrix of one stack times
    every matrix of another."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return False
    left, right = _stack_index(node.left), _stack_index(node.right)
    return (len(left) > 1 and isinstance(left[0], ast.Slice) and _is_none(left[1])
            and len(right) > 0 and _is_none(right[0]))


def tuple_products(source: str) -> list[str]:
    """Each line of source that writes out the tuple product tuples owns."""
    return [f"{node.lineno}: an outer matmul of two stacks"
            for node in ast.walk(ast.parse(source)) if _is_outer_matmul(node)]


def kernel_copies(source: str) -> list[str]:
    """Each line of source that writes out a kernel linalg owns."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and _KERNEL_NAMES.fullmatch(node.name):
            found.append(f"{node.lineno}: defines {node.name}")
        elif _is_conj_of_transpose(node):
            found.append(f"{node.lineno}: np.conj of a transpose")
        elif _is_hermitian_part(node):
            found.append(f"{node.lineno}: a Hermitian part")
        elif _is_spectrum_norm(node):
            found.append(f"{node.lineno}: a Schatten norm of a spectrum")
    return sorted(found, key=lambda line: int(line.split(":")[0]))


def test_no_module_but_linalg_defines_the_kernels():
    copies = {path.name: kernel_copies(path.read_text())
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"}
    assert {name: lines for name, lines in copies.items() if lines} == {}


def test_no_module_but_tuples_multiplies_tuples():
    copies = {path.name: tuple_products(path.read_text())
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "tuples.py"}
    assert {name: lines for name, lines in copies.items() if lines} == {}


def test_tuples_holds_the_tuple_product():
    assert len(tuple_products((PACKAGE / "tuples.py").read_text())) == 1


@pytest.mark.parametrize("snippet", [
    "b = np.conj(u.T) @ a",
    "adj = np.conj(a.transpose(0, 2, 1))",
    "mh = np.conj(np.swapaxes(m, 1, 2))",
    "h = (p + linalg.adjoint(p)) / 2.0",
    "h = (adjoint(p) + p) / 2",
    "v = top * float(np.sum((s / top) ** p)) ** (1.0 / p)",
    "v = safe * np.sum(x ** p, axis=-1) ** (1 / p)",
    "def _real_parts(m):\n    return m",
    "def _batch_schatten(mags, p):\n    return mags",
])
def test_the_guard_sees_each_copy(snippet):
    assert len(kernel_copies(snippet)) == 1


@pytest.mark.parametrize("snippet", [
    "g = np.conj(f) @ f.T",
    "w = np.conj(np.linalg.svd(m)[2][:, 0, :])",
    "x = s.norm('diag', i) / 2.0 ** (1.0 / i)",
    "h = linalg.hermitian_part(linalg.adjoint(u) @ a @ u)",
    "def _real_part_norms(mats, rows, p):\n    return mats",
])
def test_the_guard_passes_kernel_calls(snippet):
    assert kernel_copies(snippet) == []


@pytest.mark.parametrize("snippet", [
    "sq = t.array[:, None] @ t.array[None]",
    "p = a[..., :, None, :, :] @ b[..., None, :, :, :]",
    "p = a[:, None, :, :] @ b[None, :, :, :]",
    "r = _max_operator_norm(x[:, None] @ y[None])",
])
def test_the_guard_sees_each_tuple_product(snippet):
    assert len(tuple_products(snippet)) == 1


@pytest.mark.parametrize("snippet", [
    "sq = product_of(t.array, t.array)",
    "v = arrays @ pinv[:, None]",
    "m = a[i] @ a[j] - a[j] @ a[i]",
    "g = (q * vals[:, None, :]) @ adjoint(q)",
    "o = x[:, None] * y[None]",
    "c = x[None] @ y[:, None]",
])
def test_the_guard_passes_other_products(snippet):
    assert tuple_products(snippet) == []
