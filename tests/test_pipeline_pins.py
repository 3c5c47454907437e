"""Determinism guard for the CLI pipeline.

Runs ingest -> triplets -> train -> index -> query/match -> eval on the
asthenia fixture and pins the sha256 of every artifact and every stdout
each step writes.  A change that moves any of these bytes must say so and
re-pin on purpose.
"""

import hashlib
from pathlib import Path

from ontosearch.cli import main

FIG = Path(__file__).parent / "data" / "asthenia"

QUERIES = (
    "q1\tLassitude\tasthenia\n"
    "q2\ttired feeling\tfeeling-tired\n"
    "q3\texhausted\texhaustion\n"
    "q4\tstamina\tenergy\n"
)

PINNED = {
    "index/bm25.json": "b462e6096108d6a63c1c2e3c7c5efcde60a346509f141deed62384eb94a4be78",
    "index/concepts.tsv": "99646135d78cb5c77b690f96e0a7af5f432932a56c15a7b1174b5a7d14c16787",
    "index/encoder.npz": "44fdca7ef93fa0120ef49bdadd6b5974d91310c62c4e80aa0db8280bc625ab6b",
    "index/labels.tsv": "ad970091dec2c96274f03054f5fbb8c4427bd4dd2cc3cb584e430258cd35469e",
    "index/meta.json": "4b05a6021d8d518264e43cb798678e4e513c9a2d24ebc27b73f710bd6e9de82c",
    "index/relations.tsv": "95b317e6125c0c163bfa68d2d88489d78cdcee1426850dd0fad4714826b933b1",
    "index/vector.npz": "21a0a4590681146e3c0fcc8c950f0f418bdac034c33031f90a92441db5141cdd",
    "model.npz": "44fdca7ef93fa0120ef49bdadd6b5974d91310c62c4e80aa0db8280bc625ab6b",
    "report.json": "662aca8aef187ad02d6576c47e18321b2f2c947b0cd7e05f0cc36c124574aac4",
    "stdout:eval": "6d02a716a3b0d8d1e10dcd10d8a8eab0da997f1f2d3c719c069491bbab49263e",
    "stdout:index": "c94abee1b812fb6298772303bef915de78a3a610897c026c04bb7980b501f37f",
    "stdout:ingest": "f65ea1b523559b988fd0b9fb02b82192cc48f67818630fe5357eb608739688c5",
    "stdout:match": "3f1689947bcf7d1f0d01a35d1ea772e3434383dcc221b807330d5b257ef78996",
    "stdout:query-bm25": "36fd20c7377e6f123fdefee38dbc313ccb8d06f50bf18a081d1ecf7c3c507647",
    "stdout:query-vector": "c910ce79e5c88f70c555137a5cccb0e84020c98fc6f481cfc541e0557fcd881c",
    "stdout:train": "102414c19553b95e0cefbd1cdb0326961acf450d29b72ff3dcb9199bd5fc2908",
    "stdout:triplets": "9a376561d44a628c0ed93f30f0950e775c33fbda985eb8dd75a78989ed5705a9",
    "trip/dev.tsv": "6abafaeccad83352e05f12eb608f2dae172f0a5fbd3918e3c4bcf865b22175b0",
    "trip/manifest.json": "9257282dd088589c3907ec899adef3248a86e76e041a61b76ce515dd8c0408a9",
    "trip/test.tsv": "4c36d406ef0c7f62c2a8ebff3dcb1cc293ad1677e81277d09b63d3a9f11d53df",
    "trip/train.tsv": "82fe7d55b25ef7c4deb770661ff22aff4907ade61bf4b28c49e3efd8fc604530",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(work: Path, capsys) -> dict[str, str]:
    """Run every command once; sha256 of each file written and of stdout."""
    onto = ["--concepts", str(FIG / "concepts.tsv"), "--labels", str(FIG / "labels.tsv"),
            "--relations", str(FIG / "relations.tsv")]
    index = work / "index"
    (work / "queries.tsv").write_text(QUERIES, encoding="utf-8")
    steps = {
        "ingest": ["ingest", *onto],
        "triplets": ["triplets", *onto, "--seed", "7", "--ratios", "0.6,0.2,0.2",
                     "--out", str(work / "trip")],
        # the default 32768x64 table, so the full-size init and Adam are pinned
        "train": ["train", "--triplets", str(work / "trip" / "train.tsv"),
                  "--dev", str(work / "trip" / "dev.tsv"), "--epochs", "3",
                  "--batch", "4", "--lr", "0.01", "--warmup", "0.3", "--seed", "7",
                  "--out", str(work / "model.npz")],
        "index": ["index", *onto, "--model", str(work / "model.npz"), "--bm25",
                  "--out", str(index)],
        "query-vector": ["query", "--index", str(index), "--q", "tired weariness",
                         "--k", "5"],
        "query-bm25": ["query", "--index", str(index), "--q", "tired weariness",
                       "--k", "5", "--ranker", "bm25"],
        "match": ["match", "--index", str(index), "--source-concepts",
                  str(FIG / "concepts.tsv"), "--source-labels", str(FIG / "labels.tsv"),
                  "--k", "3"],
        "eval": ["eval", "--index", str(index), "--queries", str(work / "queries.tsv"),
                 "--k", "1,3", "--out", str(work / "report.json")],
    }
    digests = {}
    for name, argv in steps.items():
        assert main(argv) == 0, name
        # commands that write files echo their paths, which differ per run
        out = capsys.readouterr().out.replace(str(work), "<work>")
        digests[f"stdout:{name}"] = _sha(out.encode("utf-8"))
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "queries.tsv":
            digests[path.relative_to(work).as_posix()] = _sha(path.read_bytes())
    return digests


def test_pipeline_artifacts_are_pinned(tmp_path, capsys):
    assert pipeline_digests(tmp_path, capsys) == PINNED
