"""Reference implementations that the batch code is tested against.

The package runs TF-IDF, scoring, kNN distance, interpolation and SMOTE on
CSR arrays, one block of rows at a time.  Most functions here are the
single-vector form of one of those algorithms, written over a
`SparseVector`'s sorted (index, value) pairs with plain Python loops and
dicts.  None of them calls the batch code, so a test comparing the two
checks one implementation against an independent one.  Every float
operation happens in the order the batch code documents, so the
comparisons are bit for bit.

`SparseVector` is the tests' row type; the package has none.  `csr_of`
stacks sparse vectors into a `CsrView`, and `rows_of` splits a view back
into sparse vectors, checking each.

`tokenize` is the regex tokenizer that `preprocess.tokenize` replaced, and
`strip_html` the hand-written scanner that `preprocess.strip_html` once ran
on every post that was not ASCII.

`matrix_digest` packs a matrix's digest one element at a time with
`struct`, and `text_digest` is the ``repr`` text digest that the pinned
SMOTE outputs were recorded in.  `read_matrix_entries` is the line-by-line
matrix-file reader that `matrixio.read_matrix` once fell back to: it both
parses a file and words its first fault.

The fit references at the end (logistic, SVM, tree) run the package's
fits in their plainest loop form: every matrix product is an explicit
gather and one ``np.bincount``, the sigmoid masks its two halves, means
are ``np.mean``, the weights and the bias are separate variables, other
sums are ``np.add.reduce``, and the tree sorts each node's entries with
``np.lexsort``.  The fits must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from textbalance.classify import (
    DecisionTreeModel,
    LinearModel,
    MultinomialNBModel,
    TrainConfig,
    TrainedClassifier,
)
from textbalance.matrixio import MatrixFormatError
from textbalance.resample import SmoteConfig
from textbalance.rng import STREAM_GAP, STREAM_NEIGHBOR, derive_stream
from textbalance.vectorize import CsrView, TfIdfModel


# [^\W_] matches exactly the characters for which str.isalnum() is true.
_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """The maximal runs of ``str.isalnum()`` characters in ``text.lower()``,
    found by the regex engine."""
    return _TOKEN.findall(text.lower())


_ENTITIES = {"nbsp": " ", "amp": "&", "lt": "<", "gt": ">", "quot": '"'}
# Longest recognizable entity body: "#" + up to 7 digits, or a name.
_MAX_ENTITY_BODY = 8
_MARKUP_START = re.compile("[<&]")
# Numeric references take ASCII digits only, as in the WHATWG tokenizer.
_DECIMAL_DIGITS = re.compile("[0-9]+")
_HEX_DIGITS = re.compile("[0-9A-Fa-f]+")


def _decode_entity(raw: str, pos: int) -> tuple[str, int] | None:
    """(decoded text, characters consumed) for the entity at raw[pos] ==
    '&', or None when the '&' is literal."""
    end = raw.find(";", pos + 1, pos + 2 + _MAX_ENTITY_BODY)
    if end == -1:
        return None
    body = raw[pos + 1 : end]
    if body in _ENTITIES:
        return _ENTITIES[body], end - pos + 1
    if body[:2] in ("#x", "#X"):
        digits, base = _HEX_DIGITS.fullmatch(body, 2), 16
    elif body[:1] == "#":
        digits, base = _DECIMAL_DIGITS.fullmatch(body, 1), 10
    else:
        return None
    if digits is None:
        return None
    code = int(digits[0], base)
    if code <= 0x10FFFF:
        return chr(code), end - pos + 1
    return None


def _alpha_run(raw: str, start: int) -> str:
    end = start
    while end < len(raw) and raw[end].isalpha():
        end += 1
    return raw[start:end]


def _skip_body(raw: str, i: int, name: str) -> int:
    """Index just past the ``</name ...>`` that closes a script/style body."""
    while (j := raw.find("</", i)) != -1:
        if _alpha_run(raw, j + 2).lower() == name:
            gt = raw.find(">", j + 2)
            return len(raw) if gt == -1 else gt + 1
        i = j + 1
    return len(raw)


def strip_html(raw: str) -> str:
    """`preprocess.strip_html` as a hand-written scanner: it jumps from one
    '<' or '&' to the next, reads tag and element names as runs of
    ``str.isalpha`` characters, and decodes each entity on its own."""
    out: list[str] = []
    i = 0
    while (m := _MARKUP_START.search(raw, i)) is not None:
        j = m.start()
        out.append(raw[i:j])
        i = j + 1
        if raw[j] == "&":
            decoded = _decode_entity(raw, j)
            if decoded is None:
                out.append("&")
            else:
                out.append(decoded[0])
                i = j + decoded[1]
            continue
        nxt = raw[i : i + 1]
        if not (nxt.isalpha() or nxt in ("/", "!")):
            out.append("<")
            continue
        gt = raw.find(">", i)
        tag_body = raw[i:] if gt == -1 else raw[i:gt]
        i = len(raw) if gt == -1 else gt + 1
        name = _alpha_run(tag_body, 0).lower()
        if name in ("script", "style") and not tag_body.rstrip().endswith("/"):
            i = _skip_body(raw, i, name)
    out.append(raw[i:])
    return "".join(out).replace("\n", " ").replace("\r", " ").replace("\t", " ")


@dataclass(frozen=True)
class SparseVector:
    """Sorted (index, value) pairs; zeros are never stored."""

    dim: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        last = -1
        for index, value in self.entries:
            if not 0 <= index < self.dim:
                raise ValueError(f"index {index} outside [0, {self.dim})")
            if index <= last:
                raise ValueError("entry indices must be strictly increasing")
            if value == 0.0:
                raise ValueError(f"zero value stored at index {index}")
            last = index

    @property
    def nnz(self) -> int:
        return len(self.entries)


def csr_of(rows, dim: int) -> CsrView:
    """The view of sparse vectors of one dim, stacked in order."""
    for row in rows:
        if row.dim != dim:
            raise ValueError(f"row dim {row.dim} != matrix dim {dim}")
    lengths = [row.nnz for row in rows]
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    entries = [entry for row in rows for entry in row.entries]
    indices = np.array([i for i, _ in entries], dtype=np.int64)
    data = np.array([v for _, v in entries], dtype=np.float64)
    return CsrView(indptr, indices, data, dim)


def rows_of(csr: CsrView) -> tuple[SparseVector, ...]:
    """A view's rows as sparse vectors, each checked on construction."""
    bounds = csr.indptr.tolist()
    indices, data = csr.indices.tolist(), csr.data.tolist()
    return tuple(
        SparseVector(csr.shape[1], tuple(zip(indices[lo:hi], data[lo:hi])))
        for lo, hi in zip(bounds, bounds[1:])
    )


def from_pairs(dim: int, pairs) -> SparseVector:
    """Build from unordered (index, value) pairs, dropping zeros."""
    kept = sorted((i, float(v)) for i, v in pairs if v != 0.0)
    return SparseVector(dim=dim, entries=tuple(kept))


def get(vector: SparseVector, index: int) -> float:
    for i, v in vector.entries:
        if i == index:
            return v
        if i > index:
            break
    return 0.0


def dot(vector: SparseVector, weights, start=0):
    """``start`` plus each ``value * weights[index]``, added left to right.

    The built-in ``sum()`` adds floats with compensation from Python 3.12
    on, so its last bits depend on the Python version.  Like ``sum()``,
    an empty vector gives ``start`` unchanged (the int 0 by default).
    """
    total = start
    for i, v in vector.entries:
        total += v * weights[i]
    return total


def transform(model: TfIdfModel, doc: Iterable[str]) -> SparseVector:
    """TF-IDF vector of one document under a fitted model.

    Out-of-vocabulary tokens are ignored entirely: they do not contribute
    entries and are excluded from the term-frequency denominator.
    """
    vocab = model.vocabulary
    counts: dict[int, int] = {}
    total = 0
    for token in doc:
        idx = vocab.get(token)
        if idx is None:
            continue
        counts[idx] = counts.get(idx, 0) + 1
        total += 1
    if total == 0:
        return SparseVector(dim=model.dim, entries=())
    entries = []
    for idx in sorted(counts):
        tf = counts[idx] / total
        idf = math.log(model.n_docs / model.doc_freq[idx])
        value = tf * idf
        if value != 0.0:
            entries.append((idx, value))
    return SparseVector(dim=model.dim, entries=tuple(entries))


def _nb_scores(model: MultinomialNBModel, vector: SparseVector) -> list[float]:
    return [
        dot(vector, log_prob, start=prior)
        for prior, log_prob in zip(model.class_log_prior, model.feature_log_prob)
    ]


def predict_scored(model: TrainedClassifier, vector: SparseVector) -> tuple[int, float | None]:
    """Predicted binary label and decision score, from one pass over the
    vector: the log-posterior difference (class 1 minus class 0) for NB
    with both classes, ``w . x + b`` for linear models, else None.  Equal
    NB class scores give label 0; a linear score of exactly 0.0 gives
    label 1."""
    if vector.dim != model.dim:
        raise ValueError(f"dimension mismatch: vector {vector.dim}, model {model.dim}")
    if isinstance(model, MultinomialNBModel):
        scores = _nb_scores(model, vector)
        best = 0
        for c in range(1, len(scores)):
            if scores[c] > scores[best]:
                best = c
        score = scores[1] - scores[0] if model.class_labels == (0, 1) else None
        return model.class_labels[best], score
    if isinstance(model, LinearModel):
        score = dot(vector, model.weights) + model.bias
        return (1 if score >= 0.0 else 0), score
    i = 0
    while model.label[i] < 0:
        value = get(vector, model.feature[i])
        i = model.left[i] if value <= model.threshold[i] else model.right[i]
    return model.label[i], None


def euclidean_distance(a: SparseVector, b: SparseVector) -> float:
    """Euclidean distance computed over the union of supports."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    acc = 0.0
    ai, bi = 0, 0
    ae, be = a.entries, b.entries
    while ai < len(ae) and bi < len(be):
        ia, va = ae[ai]
        ib, vb = be[bi]
        if ia == ib:
            d = va - vb
            acc += d * d
            ai += 1
            bi += 1
        elif ia < ib:
            acc += va * va
            ai += 1
        else:
            acc += vb * vb
            bi += 1
    for i in range(ai, len(ae)):
        acc += ae[i][1] * ae[i][1]
    for i in range(bi, len(be)):
        acc += be[i][1] * be[i][1]
    return math.sqrt(acc)


def interpolate(base: SparseVector, other: SparseVector, gap: float) -> SparseVector:
    """base + gap * (other - base), evaluated over the union of supports."""
    if base.dim != other.dim:
        raise ValueError(f"dimension mismatch: {base.dim} vs {other.dim}")
    base_map = dict(base.entries)
    other_map = dict(other.entries)
    values = {}
    for i in base_map.keys() | other_map.keys():
        b = base_map.get(i, 0.0)
        values[i] = b + gap * (other_map.get(i, 0.0) - b)
    return from_pairs(base.dim, values.items())


def exhaustive_knn(points: list[SparseVector], query: int, k: int) -> list[int]:
    """Reference scan: the exact merge distance to every point, ranked by
    (distance, index), self excluded."""
    ranked = sorted(
        (euclidean_distance(points[query], points[i]), i)
        for i in range(len(points))
        if i != query
    )
    return [i for _, i in ranked[: min(k, len(points) - 1)]]


@dataclass(frozen=True)
class SyntheticSample:
    """A synthetic vector plus the (base, neighbor, gap) that produced it."""

    vector: SparseVector
    base_index: int
    neighbor_index: int
    gap: float


def smote_trace(
    minority: list[SparseVector], majority_count: int, config: SmoteConfig
) -> list[SyntheticSample]:
    """Generate majority_count - len(minority) synthetic samples with
    provenance, one at a time."""
    t = len(minority)
    if t < 1:
        raise ValueError("minority set is empty")
    if majority_count < t:
        raise ValueError(
            f"majority_count {majority_count} smaller than minority count {t}"
        )
    n_new = majority_count - t
    if n_new == 0:
        return []

    if t == 1:
        # No neighbor exists: interpolation collapses to duplication.
        lone = minority[0]
        return [SyntheticSample(lone, 0, 0, 0.0) for _ in range(n_new)]

    k_eff = min(config.k, t - 1)
    neighbor_rng = derive_stream(config.seed, STREAM_NEIGHBOR)
    gap_rng = derive_stream(config.seed, STREAM_GAP)
    neighbors: dict[int, list[int]] = {}
    samples: list[SyntheticSample] = []
    for j in range(n_new):
        i = j % t
        if i not in neighbors:
            neighbors[i] = exhaustive_knn(minority, i, k_eff)
        nn_list = neighbors[i]
        nn = nn_list[neighbor_rng.next_below(len(nn_list))]
        gap = gap_rng.next_float()
        samples.append(SyntheticSample(interpolate(minority[i], minority[nn], gap), i, nn, gap))
    return samples


# -- matrix digests --------------------------------------------------------


def _row_lists(matrix) -> list[list[tuple[int, float]]]:
    """Each row's (index, value) pairs as Python numbers, stored zeros kept."""
    bounds = matrix.csr.indptr.tolist()
    indices, data = matrix.csr.indices.tolist(), matrix.csr.data.tolist()
    return [list(zip(indices[lo:hi], data[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def matrix_digest(matrix) -> str:
    """`FeatureMatrix.digest`, one ``struct.pack`` per element: SHA-256 over
    the line ``f"{rows} {dim} {nnz}\n"``, then the row offsets (counted
    from the row lists), the column indices and the labels as ``"<q"``, and
    the values as ``"<d"``."""
    rows = _row_lists(matrix)
    h = hashlib.sha256(f"{len(rows)} {matrix.dim} {sum(map(len, rows))}\n".encode())
    offset = 0
    h.update(struct.pack("<q", offset))
    for row in rows:
        offset += len(row)
        h.update(struct.pack("<q", offset))
    for row in rows:
        for index, _ in row:
            h.update(struct.pack("<q", index))
    for label in matrix.labels:
        h.update(struct.pack("<q", label))
    for row in rows:
        for _, value in row:
            h.update(struct.pack("<d", value))
    return h.hexdigest()


def text_digest(matrix) -> str:
    """SHA-256 over the text ``f"{dim};{labels}\n"`` (labels joined by
    ","), then one line per row of its ``index:repr(value)`` entries joined
    by ";".  The pinned SMOTE outputs in `tests/test_resample.py` were
    recorded in this digest."""
    h = hashlib.sha256()
    h.update(f"{matrix.dim};{','.join(map(str, matrix.labels))}\n".encode())
    for row in _row_lists(matrix):
        h.update(";".join(f"{index}:{value!r}" for index, value in row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _matrix_header(path: Path, line: str) -> tuple[int, int, int]:
    if not line.strip():
        raise MatrixFormatError(f"{path}: missing header line")
    header = line.split()
    if len(header) != 3:
        raise MatrixFormatError(f"{path}: header must be 'nrows ncols nnz'")
    try:
        n_rows, n_cols, nnz = (int(x) for x in header)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-integer header field") from exc
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise MatrixFormatError(f"{path}: negative header field")
    if max(n_rows, n_cols) >= 2**63:
        raise MatrixFormatError(f"{path}: header field does not fit a 64-bit index")
    return n_rows, n_cols, nnz


def read_matrix_entries(path):
    """A sparse-matrix file's ``(n_rows, n_cols, rows, cols, data)``, read
    line by line into a dict keyed by (row, col): the entries as lists
    sorted by (row, col), stored zeros of either sign dropped.  The first
    fault raises a `MatrixFormatError` naming its line."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    n_rows, n_cols, nnz = _matrix_header(path, lines[0] if lines else "")
    entries: dict[tuple[int, int], float] = {}
    for line_num, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"{path}:{line_num}: expected 'row col value'")
        try:
            r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}:{line_num}: unparsable triple") from exc
        if not math.isfinite(v):
            raise MatrixFormatError(f"{path}:{line_num}: non-finite value {parts[2]!r}")
        if not 0 <= r < n_rows or not 0 <= c < n_cols:
            raise MatrixFormatError(f"{path}:{line_num}: index out of bounds")
        if (r, c) in entries:
            raise MatrixFormatError(f"{path}:{line_num}: duplicate entry ({r}, {c})")
        entries[r, c] = v
    if len(entries) != nnz:
        raise MatrixFormatError(f"{path}: header claims {nnz} entries, found {len(entries)}")
    kept = sorted(key for key, v in entries.items() if v != 0.0)
    rows = [r for r, _ in kept]
    cols = [c for _, c in kept]
    return n_rows, n_cols, rows, cols, [entries[key] for key in kept]


# -- classifier fits --------------------------------------------------------


def _entries(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of every stored entry, in row-major order."""
    X = matrix.csr
    return np.repeat(np.arange(len(matrix)), np.diff(X.indptr)), X.indices, X.data


def matvec(matrix, weights: np.ndarray) -> np.ndarray:
    """``X @ w``: each row's products added in entry order from 0.0."""
    rows, columns, values = _entries(matrix)
    return np.bincount(rows, weights[columns] * values, minlength=len(matrix))


def rmatvec(matrix, residuals: np.ndarray) -> np.ndarray:
    """``X.T @ r``: each column's products added in row-major order from 0.0."""
    rows, columns, values = _entries(matrix)
    return np.bincount(columns, residuals[rows] * values, minlength=matrix.dim)


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1 + e^-z) where z >= 0 and e^z/(1 + e^z) elsewhere, one exp per half."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_grad(
    matrix, weights: np.ndarray, bias: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean L2-regularized log loss and its gradient at (weights, bias)."""
    y = np.asarray(matrix.labels, dtype=np.float64)
    z = matvec(matrix, weights) + bias
    penalty = 0.5 * l2 * float(np.add.reduce(weights * weights))
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + penalty
    p = masked_sigmoid(z)
    grad_w = rmatvec(matrix, p - y) / len(y) + l2 * weights
    return loss, grad_w, float(np.mean(p - y))


def svm_objective(matrix, weights: np.ndarray, bias: float, lam: float) -> float:
    """lam/2 * ||(w, b)||^2 + mean(max(0, 1 - y (Xw + b))^2), y in {-1, 1}."""
    y_pm = 2.0 * np.asarray(matrix.labels, dtype=np.float64) - 1.0
    hinge = np.maximum(0.0, 1.0 - y_pm * (matvec(matrix, weights) + bias))
    penalty = 0.5 * lam * (float(np.add.reduce(weights * weights)) + bias * bias)
    return penalty + float(np.mean(hinge * hinge))


def weight_curvature(matrix, products: int = 8) -> float:
    """The Collatz-Wielandt bound max_j (Au)_j / u_j / n over u_j > 0,
    with A = |X|^T |X|: u starts at all ones, is rescaled to max 1 before
    each product, and the bound is read from the last of ``products``
    products.  0.0 when a product is all zero, inf when one overflows."""
    rows, columns, values = _entries(matrix)
    magnitudes = np.abs(values)
    u = np.ones(matrix.dim)
    for step in range(products):
        with np.errstate(over="ignore"):
            inner = np.bincount(rows, u[columns] * magnitudes, minlength=len(matrix))
            au = np.bincount(columns, inner[rows] * magnitudes, minlength=matrix.dim)
        top = float(au.max())
        if top == 0.0 or top == math.inf:
            return top
        if step == products - 1:
            return max(au[j] / u[j] for j in range(matrix.dim) if u[j] > 0.0) / len(matrix)
        u = au / top


STOP_TOL = 1e-3  # the linear fits' relative gradient-norm stop


def accelerated_fit(
    matrix, epochs, slope, ridge_w, ridge_b, L_w, L_b
) -> tuple[np.ndarray, float, int]:
    """FISTA from zero with step 1/L_w on the weights and 1/L_b on the
    bias (a weight step of 0 when L_w is 0), on mean(loss(Xw + b)) plus
    the ridge terms, where ``slope`` maps the scores to dloss/dz; momentum
    is reset when the gradient and the step point the same way.  After
    each epoch's step it stops if g·(g/L), over the weights and the bias,
    is at most STOP_TOL² times the first epoch's; it stops after
    ``epochs`` epochs at most.  (weights, bias, epochs run)."""
    n = len(matrix)
    inv_w = 1.0 / L_w if L_w > 0.0 else 0.0
    inv_b = 1.0 / L_b
    w, b = np.zeros(matrix.dim), 0.0
    at_w, at_b = w, b  # the extrapolated point
    t = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for run in range(1, epochs + 1):
            c = slope(matvec(matrix, at_w) + at_b)
            grad_w = rmatvec(matrix, c) / n + ridge_w * at_w
            grad_b = float(np.mean(c)) + ridge_b * at_b
            new_w, new_b = at_w - grad_w * inv_w, at_b - grad_b * inv_b
            step_w, step_b = new_w - w, new_b - b
            w, b = new_w, new_b
            terms = np.append(grad_w * (grad_w * inv_w), grad_b * (grad_b * inv_b))
            norm = float(np.add.reduce(terms))
            if run == 1:
                first = norm
            if norm <= STOP_TOL * STOP_TOL * first:
                break
            if float(np.add.reduce(np.append(grad_w * step_w, grad_b * step_b))) > 0.0:
                t = 1.0
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta = (t - 1.0) / t_next
            at_w, at_b = w + beta * step_w, b + beta * step_b
            t = t_next
    return w, b, run


def step_bounds(matrix, curvature: float, ridge_w: float, ridge_b: float) -> tuple[float, float]:
    """(L_w, L_b) = (2c * weight_curvature + ridge_w, 2c + ridge_b) for a
    loss whose second derivative is at most c."""
    return 2.0 * curvature * weight_curvature(matrix) + ridge_w, 2.0 * curvature + ridge_b


def logistic_fit(matrix, config: TrainConfig) -> tuple[np.ndarray, float, int]:
    """The logistic fit: its log loss's slope is sigmoid(z) - y, its
    second derivative is at most 1/4, and its bias is not regularized.
    (weights, bias, epochs run)."""
    y = np.asarray(matrix.labels, dtype=np.float64)

    def slope(z):
        return masked_sigmoid(z) - y

    L_w, L_b = step_bounds(matrix, 0.25, config.l2, 0.0)
    return accelerated_fit(matrix, config.epochs, slope, config.l2, 0.0, L_w, L_b)


def svm_fit(matrix, config: TrainConfig) -> tuple[np.ndarray, float, int]:
    """The L2-loss SVM fit with lam = 1/(C*n) on weights and bias alike:
    the squared hinge's slope is -2y * max(0, 1 - yz), and its second
    derivative is at most 2.  (weights, bias, epochs run)."""
    y_pm = 2.0 * np.asarray(matrix.labels, dtype=np.float64) - 1.0
    lam = 1.0 / (config.svm_C * len(matrix))

    def slope(z):
        return -2.0 * y_pm * np.maximum(0.0, 1.0 - y_pm * z)

    L_w, L_b = step_bounds(matrix, 2.0, lam, lam)
    return accelerated_fit(matrix, config.epochs, slope, lam, lam, L_w, L_b)


def _gini(n0, n1):
    total = n0 + n1
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - p0 * p0 - p1 * p1


def best_split(columns, values, entry_y, y, dim):
    """Best (feature, threshold) of a node from its stored entries in any
    order: the entries plus one zero entry per partly-zero column are
    sorted by (column, value), and every boundary between distinct values
    of one column is scored from prefix counts.  None if no column has
    two values."""
    n = len(y)
    parent_n1 = int(y.sum())
    col_nnz = np.bincount(columns, minlength=dim)
    col_ones = np.bincount(columns[entry_y == 1], minlength=dim)
    zero_cols = np.flatnonzero((col_nnz > 0) & (col_nnz < n))
    columns = np.concatenate((columns, zero_cols))
    values = np.concatenate((values, np.zeros(len(zero_cols))))
    counts = np.concatenate((np.ones(len(entry_y), dtype=np.int64), n - col_nnz[zero_cols]))
    ones = np.concatenate((entry_y, parent_n1 - col_ones[zero_cols]))
    order = np.lexsort((values, columns))
    columns, values = columns[order], values[order]
    boundaries = np.flatnonzero((columns[1:] == columns[:-1]) & (values[1:] > values[:-1]))
    if len(boundaries) == 0:
        return None
    group = np.cumsum(np.concatenate(([True], columns[1:] != columns[:-1]))) - 1
    left_n = (np.cumsum(counts[order]) - group * n)[boundaries]
    left_n1 = (np.cumsum(ones[order]) - group * parent_n1)[boundaries]
    right_n = n - left_n
    right_n1 = parent_n1 - left_n1
    weighted = (
        left_n * _gini(left_n - left_n1, left_n1) + right_n * _gini(right_n - right_n1, right_n1)
    ) / n
    b = boundaries[int(np.argmax(_gini(n - parent_n1, parent_n1) - weighted))]
    lower, upper = float(values[b]), float(values[b + 1])
    midpoint = (lower + upper) / 2.0
    # Rounding is monotone, so a finite midpoint is never below ``lower``;
    # one that rounds onto ``upper`` or overflows would put both values on
    # one side of the cut, so the cut is at ``lower``.
    if not math.isfinite(midpoint) or midpoint == upper:
        midpoint = lower
    return int(columns[b]), midpoint


def tree_fit(matrix, config: TrainConfig) -> DecisionTreeModel:
    """Greedy Gini CART in pre-order; each node's entries are in row-major
    order and `best_split` sorts them."""
    rows_of, columns_of, values_of = _entries(matrix)
    y = np.asarray(matrix.labels, dtype=np.int64)
    n, d = len(matrix), matrix.dim
    nodes: list[list] = []  # each node's [feature, threshold, left, right, label]
    pending = [(np.arange(n), np.arange(len(columns_of)), 0, -1, 0)]
    while pending:
        rows, entries, depth, parent, slot = pending.pop()  # slot 2 is left, 3 right
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent][slot] = node_id
        sub_y = y[rows]
        found = None
        if (
            sub_y.min() != sub_y.max()
            and depth < config.tree_max_depth
            and len(rows) >= config.tree_min_samples_split
        ):
            columns = columns_of[entries]
            found = best_split(columns, values_of[entries], y[rows_of[entries]], sub_y, d)
        if found is None:
            n1 = int(sub_y.sum())
            nodes.append([-1, 0.0, -1, -1, 1 if n1 > len(sub_y) - n1 else 0])
            continue
        feature, threshold = found
        nodes.append([feature, threshold, -1, -1, -1])
        on_feature = entries[columns == feature]
        goes_left = np.full(n, 0.0 <= threshold)
        goes_left[rows_of[on_feature]] = values_of[on_feature] <= threshold
        row_left = goes_left[rows]
        entry_left = goes_left[rows_of[entries]]
        pending.append((rows[~row_left], entries[~entry_left], depth + 1, node_id, 3))
        pending.append((rows[row_left], entries[entry_left], depth + 1, node_id, 2))
    return DecisionTreeModel(d, *map(tuple, zip(*nodes)))
