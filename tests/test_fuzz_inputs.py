"""Fuzz gate for the encoder inputs of ``index``: word-vector files,
precomputed-embedding TSVs and encoder ``.npz`` containers.

Each example mutates one valid input (lines dropped, duplicated or emptied
of their vector; NUL, BOM or CR bytes put in; bytes flipped or cut off) and
runs ``index`` on the asthenia fixture with it.  Every run must end in
exit 0, or in exit 1 or 2 with stderr ending in exactly one JSON
``{error, message}`` line, and numpy must warn of nothing.  An index that
is built must hold vectors of at least one component and answer a query
the same way.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosearch import store
from ontosearch.cli import main
from ontosearch.embedder import (
    SubwordEmbedder,
    load_precomputed,
    load_word_vectors,
    save_encoder,
)

FIG = Path(__file__).parent / "data" / "asthenia"
ONTOLOGY = ["--concepts", str(FIG / "concepts.tsv"), "--labels", str(FIG / "labels.tsv"),
            "--relations", str(FIG / "relations.tsv")]

WORD_VECTORS = (
    b"4 3\n"
    b"fatigue 0.2 -0.0 -0.6\n"
    b"tired 0.1 0.2 0.3\n"
    b"weariness 0.3 0.3 0.3\n"
    b"tired 0.15 -0.0 0.35\n"
)
PRECOMPUTED = (
    b"Asthenia\t0.1 -0.0 0.7\n"
    b"Energy and stamina finding\t0.35 0.2 0.1\n"
    b"Exhaustion\t-0.0 0.8 0.15\n"
    b"Fatigue\t-0.0 0.5 -0.25\n"
    b"Feeling tired\t0.275 0.325 0.15\n"
    b"Lassitude\t0.7 0.1 -0.0\n"
    b"Weariness\t0.3 0.3 0.3\n"
)
# input kind -> (index flag, separator between a key and its vector)
TEXT_KINDS = {"wordvec-text": ("--word-vectors", b" "),
              "precomputed-text": ("--precomputed", b"\t")}
MODEL_KINDS = ("wordvec-npz", "precomputed-npz", "subword-npz")


def _container(kind: str, work: Path) -> bytes:
    path = work / "base.npz"
    if kind == "wordvec-npz":
        (work / "base.txt").write_bytes(WORD_VECTORS)
        save_encoder(load_word_vectors(work / "base.txt"), path)
    elif kind == "precomputed-npz":
        (work / "base.txt").write_bytes(PRECOMPUTED)
        save_encoder(load_precomputed(work / "base.txt"), path)
    else:
        save_encoder(SubwordEmbedder(bucket_count=16, dim=3, seed=1), path)
    return path.read_bytes()


def mutate_text(data: bytes, sep: bytes, ops) -> bytes:
    for name, pos, byte in ops:
        lines = data.split(b"\n")
        i = pos % len(lines)
        if name == "drop":
            del lines[i]
        elif name == "dup":
            lines.insert(i, lines[i])
        elif name == "empty":  # the key and its separator, no components
            lines[i] = lines[i].partition(sep)[0] + sep
        elif name == "crlf":
            lines = [line + b"\r" for line in lines[:-1]] + lines[-1:]
        data = b"\n".join(lines)
        if name in ("nul", "cr"):
            at = pos % (len(data) + 1)
            data = data[:at] + (b"\0" if name == "nul" else b"\r") + data[at:]
        elif name == "bom":
            data = b"\xef\xbb\xbf" + data
        elif name == "flip" and data:
            data = flip(data, pos, byte)
    return data


def flip(data: bytes, pos: int, mask: int) -> bytes:
    at = pos % len(data)
    return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]


def mutate_binary(data: bytes, ops) -> bytes:
    for name, pos, byte in ops:
        data = data[:pos % len(data)] if name == "truncate" else flip(data, pos, byte)
        if not data:
            break
    return data


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _error_lines(err: str) -> list[dict]:
    lines = []
    for line in err.splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict) and set(value) == {"error", "message"}:
            lines.append(value)
    return lines


def check_answer(code: int, out: str, err: str) -> None:
    """Exit 0 and no error line, or exit 1 or 2 and stderr ending in the one
    error line."""
    if code == 0:
        assert _error_lines(err) == [], err
        return
    assert code in (1, 2), (code, err)
    assert out == ""
    assert err.endswith("\n") and len(_error_lines(err)) == 1, err
    assert _error_lines(err.splitlines()[-1]) != [], err
    assert (code == 2) == (_error_lines(err)[0]["error"] == "app.UsageError"), err


TEXT_OP = st.tuples(st.sampled_from(["drop", "dup", "empty", "nul", "bom", "cr", "crlf", "flip"]),
                    st.integers(0, 1 << 16), st.integers(1, 255))
BINARY_OP = st.tuples(st.sampled_from(["flip", "flip", "flip", "truncate"]),
                      st.integers(0, 1 << 16), st.integers(1, 255))


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(
    st.tuples(st.sampled_from(sorted(TEXT_KINDS)), st.lists(TEXT_OP, max_size=4)),
    st.tuples(st.sampled_from(MODEL_KINDS), st.lists(BINARY_OP, min_size=1, max_size=3)),
))
@example(case=("precomputed-text", [("empty", line, 1) for line in range(7)]))
@example(case=("wordvec-text", [("empty", line, 1) for line in range(1, 5)]))
def test_index_answers_every_mutated_encoder_input(case):
    kind, ops = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        work = Path(tmp)
        if kind in TEXT_KINDS:
            flag, sep = TEXT_KINDS[kind]
            base = WORD_VECTORS if kind.startswith("wordvec") else PRECOMPUTED
            data = mutate_text(base, sep, ops)
        else:
            flag = "--model"
            data = mutate_binary(_container(kind, work), ops)
        source = work / "input"
        source.write_bytes(data)
        index = work / "index"
        code, out, err = _run(["index", *ONTOLOGY, flag, str(source), "--out", str(index)])
        check_answer(code, out, err)
        if code == 0:
            assert store.load_bundle(index).encoder.dim >= 1
            check_answer(*_run(["query", "--index", str(index), "--q", "Fatigue"]))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
            [str(w.message) for w in caught]
