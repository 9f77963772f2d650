"""The chunked matrix writer against the per-entry loop it replaced, kept
here as a reference oracle, and `FeatureMatrix.digest` against
`oracles.matrix_digest`."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from oracles import matrix_digest
from textbalance import matrixio
from textbalance.matrixio import read_matrix, write_matrix
from textbalance.vectorize import CsrView, FeatureMatrix

# Both zeros, subnormals, both sides of repr's switch to exponent form
# (below 1e-4 and from 1e16 on), and plain values; drawn with repeats.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308,
    2.2250738585072014e-308, 1e-4, 9.999999999999999e-05, 0.00010000000000000002,
    1e-5, -1e-5, 9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16, 1e300,
    -1.7976931348623157e308, 1.0, -1.0, 0.1, -2.5, 3.0,
]


def reference_write(matrix: FeatureMatrix, path, labels_path) -> None:
    """The writer as it was: one f-string with ``repr`` per stored entry."""
    csr = matrix.csr
    indptr, indices, data = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{len(matrix)} {matrix.dim} {len(data)}\n")
        for r, (lo, hi) in enumerate(zip(indptr, indptr[1:])):
            out.writelines(f"{r} {indices[k]} {data[k]!r}\n" for k in range(lo, hi))
    with open(labels_path, "w", encoding="utf-8") as out:
        out.write("".join(f"{lb}\n" for lb in matrix.labels))


def random_matrix(seed: int, n_rows: int, dim: int) -> FeatureMatrix:
    """Rows of random length (some empty), values mostly from `EDGE_VALUES`
    so they repeat across rows, the rest random over many magnitudes."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(n_rows):
        empty = r in (0, n_rows // 2, n_rows - 1) and rng.random() < 0.7
        n = 0 if empty or dim == 0 else int(rng.integers(0, min(dim, 6) + 1))
        cols = np.sort(rng.choice(dim, size=n, replace=False)) if n else np.zeros(0, np.int64)
        pool = rng.choice(np.array(EDGE_VALUES), size=n)
        scattered = rng.normal(size=n) * 10.0 ** rng.integers(-12, 20, size=n)
        rows.append((cols.astype(np.int64), np.where(rng.random(n) < 0.6, pool, scattered)))
    lengths = [cols.size for cols, _ in rows]
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    indices = np.concatenate([cols for cols, _ in rows] or [np.zeros(0, np.int64)])
    data = np.concatenate([vals for _, vals in rows] or [np.zeros(0)])
    labels = tuple(int(v) for v in rng.integers(0, 2, size=n_rows))
    return FeatureMatrix(CsrView(indptr, indices, data, dim), labels)


# (seed, n_rows, dim): 0 rows, dim 0 and 1, and wider random matrices.
SHAPES = [
    (0, 0, 0), (1, 0, 1), (2, 0, 7), (3, 4, 0), (4, 5, 1), (5, 1, 1),
    (6, 9, 4), (7, 30, 12), (8, 60, 40), (9, 200, 25),
]
CHUNKS = [1, 2, 3, 7, matrixio._CHUNK_ENTRIES]


def written(matrix: FeatureMatrix, tmp_path, name: str, writer) -> tuple[bytes, bytes]:
    path, labels_path = tmp_path / f"{name}.mtx", tmp_path / f"{name}.labels"
    writer(matrix, path, labels_path)
    return path.read_bytes(), labels_path.read_bytes()


class TestWriterOracle:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_byte_identical_to_per_entry_writer(self, tmp_path, monkeypatch, shape, chunk):
        monkeypatch.setattr(matrixio, "_CHUNK_ENTRIES", chunk)
        matrix = random_matrix(*shape)
        assert written(matrix, tmp_path, "new", write_matrix) == written(
            matrix, tmp_path, "old", reference_write
        )

    def test_cases_cover_the_edges(self):
        matrices = [random_matrix(*shape) for shape in SHAPES]
        data = np.concatenate([m.csr.data for m in matrices])
        bits = set(data.view(np.int64).tolist())
        assert {int(np.float64(v).view(np.int64)) for v in EDGE_VALUES} <= bits
        assert len(bits) < data.size  # values repeat
        lengths = np.concatenate([np.diff(m.csr.indptr) for m in matrices if len(m) > 2])
        assert (lengths == 0).any() and (lengths > 1).any()

    def test_signed_zeros_keep_their_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matrixio, "_CHUNK_ENTRIES", 2)
        csr = CsrView(np.array([0, 3, 3]), np.array([0, 1, 2]), np.array([0.0, -0.0, 0.0]), 3)
        matrix = FeatureMatrix(csr, (0, 1))
        text, labels = written(matrix, tmp_path, "zeros", write_matrix)
        assert text == b"2 3 3\n0 0 0.0\n0 1 -0.0\n0 2 0.0\n"
        assert labels == b"0\n1\n"


class TestHugeDim:
    DIM = 2**62

    def matrix(self) -> FeatureMatrix:
        indptr = np.array([0, 2, 2, 4])
        indices = np.array([0, self.DIM - 1, 5, 2**40])
        data = np.array([1.5, -0.25, 1e-7, 3.0])
        return FeatureMatrix(CsrView(indptr, indices, data, self.DIM), (1, 0, 1))

    def test_round_trip_without_dim_sized_tables(self, tmp_path):
        matrix = self.matrix()
        path = tmp_path / "huge.mtx"
        write_matrix(matrix, path)
        assert path.read_text() == (
            f"3 {self.DIM} 4\n0 0 1.5\n0 {self.DIM - 1} -0.25\n2 5 1e-07\n2 {2**40} 3.0\n"
        )
        restored = read_matrix(path)
        assert restored.dim == self.DIM
        assert restored == matrix

    def test_digest_matches_reference(self):
        matrix = self.matrix()
        assert matrix.digest() == matrix_digest(matrix)


class TestReaderContract:
    """Whatever the writer emits re-reads through the array parser: the
    line reader runs only to word an error."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_written_files_never_reach_the_checker(self, tmp_path, monkeypatch, shape):
        def first_fault(path, lines):
            raise AssertionError(f"{path} reached the line reader")

        monkeypatch.setattr(matrixio, "_first_fault", first_fault)
        matrix = random_matrix(*shape)
        path = tmp_path / "m.mtx"
        write_matrix(matrix, path)
        restored = read_matrix(path)
        # The reader drops stored zeros of either sign and keeps the rest bit for bit.
        stored = matrix.csr.data != 0.0
        csr = restored.csr
        assert csr.indptr.tolist() == np.searchsorted(
            matrix.csr.row_ids[stored], np.arange(len(matrix) + 1)
        ).tolist()
        assert csr.indices.tolist() == matrix.csr.indices[stored].tolist()
        assert csr.data.view(np.int64).tolist() == matrix.csr.data[stored].view(np.int64).tolist()
        assert (restored.dim, restored.labels) == (matrix.dim, matrix.labels)


class TestReaderGarbage:
    @staticmethod
    def collections(work) -> list[int]:
        """The cyclic garbage collections per generation while ``work()``
        runs, counted from a fresh `gc.collect`."""
        counts = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                counts[info["generation"]] += 1

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            work()
        finally:
            gc.callbacks.remove(count)
        return counts

    def test_read_triggers_no_collection(self, tmp_path):
        # 36,000 entries: a reader that kept one container per line alive
        # would run about a hundred collections here.
        n_rows, per_row, dim = 3000, 12, 500
        rng = np.random.default_rng(3)
        indices = np.concatenate(
            [np.sort(rng.choice(dim, per_row, replace=False)) for _ in range(n_rows)]
        )
        csr = CsrView(np.arange(n_rows + 1) * per_row, indices, rng.random(indices.size), dim)
        matrix = FeatureMatrix(csr, tuple(int(b) for b in rng.integers(0, 2, n_rows)))
        path = tmp_path / "m.mtx"
        write_matrix(matrix, path)
        # The counter sees the collections that many live lists trigger.
        assert self.collections(lambda: [[] for _ in range(5000)])[0] > 0
        restored = []
        assert self.collections(lambda: restored.append(read_matrix(path))) == [0, 0, 0]
        assert restored == [matrix]


def relaid(matrix: FeatureMatrix, layout: str) -> FeatureMatrix:
    """The same matrix with its arrays stored another way."""
    csr = matrix.csr
    arrays = [csr.indptr, csr.indices, csr.data]
    if layout == "int32":
        arrays[:2] = [a.astype(np.int32) for a in arrays[:2]]
    elif layout == "big-endian":
        arrays = [a.astype(a.dtype.newbyteorder(">")) for a in arrays]
    elif layout == "strided":
        arrays = [np.repeat(a, 2)[::2] for a in arrays]
    return FeatureMatrix(CsrView(*arrays, matrix.dim), matrix.labels)


def digest_of(indptr, indices, data, dim: int, labels) -> str:
    csr = CsrView(np.array(indptr), np.array(indices), np.array(data, dtype=np.float64), dim)
    return FeatureMatrix(csr, labels).digest()


class TestDigestOracle:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_hash_as_per_row_loop(self, monkeypatch, shape, chunk):
        # The writer's chunk size must not reach the digest.
        monkeypatch.setattr(matrixio, "_CHUNK_ENTRIES", chunk)
        matrix = random_matrix(*shape)
        assert matrix.digest() == matrix_digest(matrix)

    @pytest.mark.parametrize("layout", ["native", "int32", "big-endian", "strided"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_hash_as_struct_packing(self, shape, layout):
        matrix = random_matrix(*shape)
        assert relaid(matrix, layout).digest() == matrix_digest(matrix)

    def test_row_boundaries_change_the_digest(self):
        # Same indices, values, labels and row count; only indptr differs.
        one_each = digest_of([0, 1, 2], [0, 1], [1.0, 2.0], 2, (0, 1))
        both_first = digest_of([0, 2, 2], [0, 1], [1.0, 2.0], 2, (0, 1))
        assert one_each != both_first

    def test_dim_changes_the_digest(self):
        assert digest_of([0, 1], [0], [1.0], 1, (0,)) != digest_of([0, 1], [0], [1.0], 2, (0,))

    def test_signed_zero_changes_the_digest(self):
        assert digest_of([0, 1], [0], [0.0], 1, (0,)) != digest_of([0, 1], [0], [-0.0], 1, (0,))

    def test_pinned_digest(self):
        digest = digest_of([0, 2, 2, 3], [1, 4, 0], [0.5, -2.0, 1e-300], 5, (1, 0, 1))
        assert digest == "dba423b6b2b8529b15c5672af610222b9fb4b891081aed69c66633eb451e4146"
