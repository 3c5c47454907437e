import json
from pathlib import Path

import pytest

from ontosearch.cli import main
from ontosearch.config import PipelineConfig
from ontosearch.errors import UsageError

FIG = Path(__file__).parent / "data" / "asthenia"


def write_config(path, **entries):
    path.write_text(
        "# pipeline settings\n"
        + "".join(f"{k} = {v}\n" for k, v in entries.items()),
        encoding="utf-8",
    )
    return path


class TestPipelineConfig:
    def test_load_gives_typed_values(self, tmp_path):
        src = write_config(
            tmp_path / "a.conf",
            **{
                "paths.concepts": FIG / "concepts.tsv",
                "train.lr": 0.001,
                "train.epochs": 3,
                "ranker.k": 5,
                "serve.bind": "127.0.0.1:9999",
            },
        )
        values = PipelineConfig.load(src).values
        assert sorted(values.items()) == [
            ("paths.concepts", str(FIG / "concepts.tsv")),
            ("ranker.k", "5"),
            ("serve.bind", "127.0.0.1:9999"),
            ("train.epochs", "3"),
            ("train.lr", "0.001"),
        ]

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.conf", **{"nope.key": 1})
        with pytest.raises(UsageError):
            PipelineConfig.load(path)

    def test_bad_value_rejected(self, capsys, tmp_path):
        # only the command whose flag a value feeds checks it, as argparse
        path = write_config(tmp_path / "bad.conf", **{"train.epochs": "many"})
        assert main(["ingest", "--config", str(path), "--concepts", str(FIG / "concepts.tsv"),
                     "--labels", str(FIG / "labels.tsv"),
                     "--relations", str(FIG / "relations.tsv")]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--triplets", "train.tsv"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "app.UsageError"
        assert error["message"] == "argument --epochs: invalid int value: 'many'"

    def test_defaults_scoped_per_command(self, tmp_path):
        cfg = PipelineConfig({"ranker.k": 7, "train.epochs": 2, "seeds.train": 3,
                              "paths.stopwords": "stop.txt"})
        assert cfg.defaults_for("query") == {"k": 7}
        assert cfg.defaults_for("train") == {"epochs": 2, "seed": 3}
        assert cfg.defaults_for("eval") == {"stopwords": "stop.txt"}


class TestConfigDrivenCli:
    def test_config_supplies_required_flags(self, capsys, tmp_path):
        conf = write_config(
            tmp_path / "pipe.conf",
            **{
                "paths.concepts": FIG / "concepts.tsv",
                "paths.labels": FIG / "labels.tsv",
                "paths.relations": FIG / "relations.tsv",
            },
        )
        assert main(["ingest", "--config", str(conf)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["concepts"] == 5

    def test_flags_override_config(self, capsys, tmp_path):
        # config points at a missing file; the explicit flag must win
        conf = write_config(
            tmp_path / "pipe.conf",
            **{
                "paths.concepts": FIG / "concepts.tsv",
                "paths.labels": FIG / "labels.tsv",
                "paths.relations": FIG / "relations.tsv",
                "seeds.triplets": 3,
            },
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["triplets", "--config", str(conf), "--out", str(out_a)]) == 0
        assert main(["triplets", "--config", str(conf), "--out", str(out_b),
                     "--seed", "9"]) == 0
        capsys.readouterr()
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        assert manifest_a["seed"] == 3   # from config
        assert manifest_b["seed"] == 9   # flag wins

    def test_config_missing_file_is_usage_error(self, capsys, tmp_path):
        code = main(["ingest", "--config", str(tmp_path / "none.conf")])
        err = capsys.readouterr().err
        assert code == 1 or code == 2
        assert "error" in json.loads(err)

    def missing_concepts_config(self, tmp_path):
        return write_config(
            tmp_path / "bad.conf",
            **{
                "paths.concepts": tmp_path / "absent.tsv",
                "paths.labels": FIG / "labels.tsv",
                "paths.relations": FIG / "relations.tsv",
            },
        )

    def test_explicit_flag_wins_over_a_missing_config_path(self, capsys, tmp_path):
        conf = self.missing_concepts_config(tmp_path)
        assert main(["ingest", "--config", str(conf),
                     "--concepts", str(FIG / "concepts.tsv")]) == 0
        assert json.loads(capsys.readouterr().out)["concepts"] == 5

    def test_missing_config_path_is_reported_like_a_missing_flag_path(self, capsys, tmp_path):
        conf = self.missing_concepts_config(tmp_path)
        assert main(["ingest", "--config", str(conf)]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)
        assert captured.out == ""
        assert error["error"] == "io.FileNotFound"
        assert "absent.tsv" in error["message"]
