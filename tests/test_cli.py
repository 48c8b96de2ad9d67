import configparser
import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

from subsetlearn import cli, cluster, container, pipeline
from subsetlearn.config import _KEYS, RunConfig, parse_config
from subsetlearn.convnet import TrainConfig
from subsetlearn.errors import ConfigError
from subsetlearn.numkit import derive_seed
from subsetlearn.pipeline import SystemConfig

CONFIG = """
[run]
seeds = 3
k = 2
selector = network
target = target

[dataset.target]
n_groups = 2
classes_per_group = 2
train_per_class = 10
test_per_class = 4

[train]
epochs = 2
learning_rate = 0.02
batch_size = 16

[svm]
epochs = 20
"""

THREE_STAGE_CONFIG = """
[run]
seeds = 3
k = 2
selector = centroid
target = target

[dataset.general]
n_groups = 2
classes_per_group = 3
train_per_class = 8
test_per_class = 1

[dataset.domain]
n_groups = 2
classes_per_group = 2
train_per_class = 8
test_per_class = 1

[dataset.target]
n_groups = 2
classes_per_group = 2
train_per_class = 10
test_per_class = 3

[graph]
stages = general:rt domain:ft target:ft

[train]
epochs = 1
learning_rate = 0.02
batch_size = 8

[svm]
epochs = 10
"""

# Every key of the fixed sections, each set off its default.
ALL_KEYS_CONFIG = """
[run]
seeds = 1
k = 3
selector = centroid

[dataset.target]
n_groups = 2

[train]
learning_rate = 0.01
momentum = 0.5
weight_decay = 0.002
batch_size = 9
epochs = 4
lr_step_factor = 0.5
lr_step_every = 11

[subset]
epochs = 5
learning_rate = 0.003

[selector]
epochs = 6

[svm]
lambda = 0.04
epochs = 7

[cluster]
lda_out_dim = 2
restarts = 8
"""


def with_entry(section: str, entry: str) -> str:
    """CONFIG with one more ``key = value`` line in ``[section]``."""
    header = f"[{section}]\n"
    if header in CONFIG:
        return CONFIG.replace(header, header + entry + "\n")
    return CONFIG + f"\n{header}{entry}\n"


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


class TestGen:
    def test_writes_loadable_dataset(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "gen", "--config", str(config_file), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        ds_path = out / "target.sfl"
        assert ds_path.exists()
        assert str(ds_path) in result.stdout and "crc32=" in result.stdout
        ds = pipeline.load_dataset(ds_path)
        assert ds.n_classes == 4
        assert ds.rows("train").size == 40 and ds.rows("test").size == 16

    def test_same_seed_same_checksum(self, run_cli, tmp_path, config_file):
        r1 = run_cli("--out-dir", str(tmp_path / "o1"), "gen", "--config", str(config_file), cwd=tmp_path)
        r2 = run_cli("--out-dir", str(tmp_path / "o2"), "gen", "--config", str(config_file), cwd=tmp_path)
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0, r2.stderr
        crc1 = r1.stdout.split("crc32=")[1].strip()
        crc2 = r2.stdout.split("crc32=")[1].strip()
        assert crc1 == crc2
        assert container.container_checksum(tmp_path / "o1" / "target.sfl") == int(crc1, 16)
        # a different seed must change the checksum: the printed value has to
        # identify content, not just pass a self-consistency check
        r3 = run_cli(
            "--out-dir", str(tmp_path / "o3"), "gen", "--config", str(config_file),
            "--seed", "99", cwd=tmp_path,
        )
        assert r3.returncode == 0, r3.stderr
        crc3 = r3.stdout.split("crc32=")[1].strip()
        assert crc3 != crc1

    def test_zero_classes_is_config_error_exit_2(self, run_cli, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG.replace("classes_per_group = 2", "classes_per_group = 0", 1))
        result = run_cli("--out-dir", str(tmp_path / "out"), "gen", "--config", str(bad), cwd=tmp_path)
        assert result.returncode == 2
        assert not (tmp_path / "out" / "target.sfl").exists()


class TestTrain:
    def test_single_seed_run(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "train", "--config", str(config_file), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        bundle = pipeline.load_bundle(out / "bundle-seed3.sfl")
        assert bundle.provenance["graph"] == "target-rt"
        assert bundle.provenance["steps"] == 1
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "system_name,seed,mean_accuracy,overall_accuracy"
        assert len(lines) == 2 and lines[1].split(",")[1] == "3"

    def test_multi_seed_rows(self, run_cli, tmp_path):
        config = tmp_path / "multi.ini"
        config.write_text(CONFIG.replace("seeds = 3", "seeds = 3 4"))
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "train", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert (out / "bundle-seed3.sfl").exists() and (out / "bundle-seed4.sfl").exists()

    def test_three_stage_provenance(self, run_cli, tmp_path):
        config = tmp_path / "stages.ini"
        config.write_text(THREE_STAGE_CONFIG)
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "train", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        bundle = pipeline.load_bundle(out / "bundle-seed3.sfl")
        assert bundle.provenance["steps"] == 3
        assert bundle.provenance["graph"].count("-ft") == 2

    def test_seed_override(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        result = run_cli(
            "--out-dir", str(out), "train", "--config", str(config_file), "--seed", "9", cwd=tmp_path
        )
        assert result.returncode == 0, result.stderr
        assert (out / "bundle-seed9.sfl").exists()

    def test_threads_do_not_change_the_bundle(self, run_cli, tmp_path, config_file):
        bundles = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            result = run_cli(
                "--out-dir", str(out), "--threads", threads, "train", "--config", str(config_file),
                cwd=tmp_path,
            )
            assert result.returncode == 0, result.stderr
            bundles.append((out / "bundle-seed3.sfl").read_bytes())
        assert bundles[0] == bundles[1]

    def test_invalid_value_exit_2_before_training(self, run_cli, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(with_entry("svm", "lambda = 0"))
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "train", "--config", str(bad), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "svm_lambda" in result.stderr
        assert not (out / "bundle-seed3.sfl").exists()


class TestEval:
    def test_reproduces_training_metrics(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        trained = run_cli("--out-dir", str(out), "train", "--config", str(config_file), cwd=tmp_path)
        assert trained.returncode == 0, trained.stderr
        generated = run_cli("--out-dir", str(out), "gen", "--config", str(config_file), cwd=tmp_path)
        assert generated.returncode == 0, generated.stderr
        ev = tmp_path / "ev"
        result = run_cli(
            "--out-dir", str(ev), "eval", str(out / "bundle-seed3.sfl"), str(out / "target.sfl"), cwd=tmp_path
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("mean_accuracy=")
        train_row = (out / "metrics.csv").read_text().strip().splitlines()[1]
        eval_row = (ev / "metrics.csv").read_text().strip().splitlines()[1]
        assert train_row.split(",")[2:] == eval_row.split(",")[2:]
        confusion = (ev / "confusion.csv").read_text().strip().splitlines()
        assert len(confusion) == 5  # header + 4 classes

    def test_corrupted_bundle_exit_3(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        trained = run_cli("--out-dir", str(out), "train", "--config", str(config_file), cwd=tmp_path)
        assert trained.returncode == 0, trained.stderr
        generated = run_cli("--out-dir", str(out), "gen", "--config", str(config_file), cwd=tmp_path)
        assert generated.returncode == 0, generated.stderr
        bundle_path = out / "bundle-seed3.sfl"
        data = bytearray(bundle_path.read_bytes())
        data[len(data) // 3] ^= 0x55
        bundle_path.write_bytes(bytes(data))
        ev = tmp_path / "ev"
        result = run_cli("--out-dir", str(ev), "eval", str(bundle_path), str(out / "target.sfl"), cwd=tmp_path)
        assert result.returncode == 3
        assert not (ev / "metrics.csv").exists()  # no partial outputs

    def test_class_count_mismatch_exit_4(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        trained = run_cli("--out-dir", str(out), "train", "--config", str(config_file), cwd=tmp_path)
        assert trained.returncode == 0, trained.stderr
        other = tmp_path / "other.sfl"
        pipeline.save_dataset(
            other,
            pipeline.generate_synthetic(n_groups=3, classes_per_group=2, train_per_class=3, test_per_class=2, seed=0),
        )
        result = run_cli(
            "--out-dir", str(tmp_path / "ev"), "eval", str(out / "bundle-seed3.sfl"), str(other), cwd=tmp_path
        )
        assert result.returncode == 4

    def test_non_object_metadata_exit_3(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        generated = run_cli("--out-dir", str(out), "gen", "--config", str(config_file), cwd=tmp_path)
        assert generated.returncode == 0, generated.stderr
        bundle_path = tmp_path / "list.sfl"
        container.write_container(bundle_path, {"x": np.zeros(2)}, "[]")
        ev = tmp_path / "ev"
        result = run_cli("--out-dir", str(ev), "eval", str(bundle_path), str(out / "target.sfl"), cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "not a JSON object" in result.stderr
        assert not (ev / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "which,key,value",
        [
            ("target.sfl", "class_names", "abcdefgh"),  # 8 "classes" would exit 4
            ("bundle-seed3.sfl", "base_spec", ["relu", 99]),
            ("bundle-seed3.sfl", "base_spec.input", [3, 16.7, 16]),
            ("bundle-seed3.sfl", "base_spec.classes", True),
            ("bundle-seed3.sfl", "provenance", [1, 2]),
            ("bundle-seed3.sfl", "k", 2.9),
            ("bundle-seed3.sfl", "lda_out_dim", 3.0),
            ("bundle-seed3.sfl", "kmeans_seed", 1.5),
            ("bundle-seed3.sfl", "svm_checkpoint_epochs", [1.0]),
            ("bundle-seed3.sfl", "provenance", {"graph": "target-rt", "steps": 1, "seed": "abc", "k": 2,
                                                "selector": "network"}),
            ("bundle-seed3.sfl", "tap", "conv_last"),
        ],
    )
    def test_malformed_description_exit_3(self, run_cli, tmp_path, config_file, which, key, value):
        out = tmp_path / "out"
        for command in ("train", "gen"):
            done = run_cli("--out-dir", str(out), command, "--config", str(config_file), cwd=tmp_path)
            assert done.returncode == 0, done.stderr
        path = out / which
        tensors, meta = container.read_container(path)
        info = json.loads(meta)
        if key == "base_spec":
            info[key]["layers"][1] = value
        elif key.startswith("base_spec."):
            info["base_spec"][key.split(".")[1]] = value
        else:
            info[key] = value
        container.write_container(path, tensors, json.dumps(info))
        ev = tmp_path / "ev"
        result = run_cli(
            "--out-dir", str(ev), "eval", str(out / "bundle-seed3.sfl"), str(out / "target.sfl"), cwd=tmp_path
        )
        assert result.returncode == 3, result.stderr
        assert not (ev / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "tensor,offset,payload",
        [
            (np.zeros(2), 2, b"\xff"),  # name is not UTF-8
            (np.zeros(128), 3, bytes([100])),  # rank above numpy's 64; the zeros give 99 more extents
            (np.zeros((0, 2)), 12, struct.pack("<Q", 2**62)),  # empty, with an extent past intp
        ],
        ids=["name_not_utf8", "rank_above_64", "empty_with_huge_extent"],
    )
    def test_malformed_tensor_header_exit_3(self, run_cli, tmp_path, config_file, tensor, offset, payload):
        out = tmp_path / "out"
        generated = run_cli("--out-dir", str(out), "gen", "--config", str(config_file), cwd=tmp_path)
        assert generated.returncode == 0, generated.stderr
        bundle_path = tmp_path / "edited.sfl"
        container.write_container(bundle_path, {"x": tensor}, "")
        data = bytearray(bundle_path.read_bytes())
        at = 16 + offset  # magic, version, empty metadata block, tensor count; then the tensor "x"
        data[at : at + len(payload)] = payload
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))  # so the body is parsed
        bundle_path.write_bytes(bytes(data))
        ev = tmp_path / "ev"
        result = run_cli("--out-dir", str(ev), "eval", str(bundle_path), str(out / "target.sfl"), cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert not (ev / "metrics.csv").exists()

    def test_missing_bundle_is_other_error(self, run_cli, tmp_path, config_file):
        out = tmp_path / "out"
        generated = run_cli("--out-dir", str(out), "gen", "--config", str(config_file), cwd=tmp_path)
        assert generated.returncode == 0, generated.stderr
        missing = tmp_path / "nope.sfl"
        result = run_cli(
            "--out-dir", str(tmp_path / "ev"), "eval", str(missing), str(out / "target.sfl"), cwd=tmp_path
        )
        assert result.returncode == 1
        # the CLI's own catch-all, not an interpreter that failed to start it
        assert result.stderr.startswith("error:") and str(missing) in result.stderr, result.stderr


class TestClusterReport:
    def test_three_rows_and_determinism(self, run_cli, tmp_path, config_file):
        r1 = run_cli("--out-dir", str(tmp_path / "o1"), "cluster-report", "--config", str(config_file), cwd=tmp_path)
        assert r1.returncode == 0, r1.stderr
        lines = (tmp_path / "o1" / "cluster_report.csv").read_text().strip().splitlines()
        assert lines[0] == "tap,silhouette,min_size,max_size"
        assert len(lines) == 4
        taps = [line.split(",")[0] for line in lines[1:]]
        assert taps == ["conv_last", "fc_penultimate", "lda_fc_penultimate"]
        r2 = run_cli("--out-dir", str(tmp_path / "o2"), "cluster-report", "--config", str(config_file), cwd=tmp_path)
        assert r2.returncode == 0, r2.stderr
        assert (tmp_path / "o1" / "cluster_report.csv").read_bytes() == (
            tmp_path / "o2" / "cluster_report.csv"
        ).read_bytes()


class TestConfigParsing:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.ini")

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + "\n[dataset.extra]\nwhatever = 3\n")
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize(
        "section,key",
        [
            ("run", "seedz"),
            ("subset", "epoch"),
            ("selector", "learning_rate"),
            ("svm", "lamda"),
            ("cluster", "restart"),
            ("graph", "stage"),
            ("train", "momentun"),
            ("train", "lr_schedule"),
            ("run", "seed"),
        ],
    )
    def test_unknown_section_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "run.ini"
        path.write_text(with_entry(section, f"{key} = 0"))
        with pytest.raises(ConfigError, match=f"\\[{section}\\] unknown key '{key}'"):
            parse_config(path)

    @pytest.mark.parametrize(
        "section", ["svms", "Run", "training", "dataset", "datasets.extra", "graph.extra", "DEFAULT"]
    )
    def test_unknown_section_rejected(self, tmp_path, section):
        path = tmp_path / "run.ini"
        path.write_text(with_entry(section, "lambda = 0"))
        with pytest.raises(ConfigError, match=f"unknown section \\[{section}\\]"):
            parse_config(path)

    def test_target_must_exist(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG.replace("target = target", "target = missing"))
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_graph_references_validated(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + "\n[graph]\nstages = nope:rt\n")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_file_backed_dataset_must_exist(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + "\n[dataset.extra]\nfile = not_there.sfl\n")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_file_backed_dataset_round_trip(self, tmp_path):
        ds_path = tmp_path / "fixed.sfl"
        pipeline.save_dataset(ds_path, pipeline.generate_synthetic(
            n_groups=2, classes_per_group=2, train_per_class=10, test_per_class=4, seed=3))
        config = tmp_path / "file.ini"
        config.write_text(
            CONFIG.replace(
                "[dataset.target]\nn_groups = 2\nclasses_per_group = 2\ntrain_per_class = 10\ntest_per_class = 4",
                f"[dataset.target]\nfile = {ds_path}",
            )
        )
        cfg = parse_config(config)
        built = cfg.build_datasets(3)
        assert np.array_equal(built["target"].labels, pipeline.load_dataset(ds_path).labels)

    def test_no_seeds_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG.replace("seeds = 3", "seeds ="))
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_seed_override_wins(self, config_file):
        cfg = parse_config(config_file, seed_override=42)
        assert cfg.seeds == (42,)

    @pytest.mark.parametrize(
        "section,key,bad,good",
        [
            ("graph", "stages", "target:rt:abc", "target:rt:2"),
            ("graph", "stages", "target:rt:0", "target:rt:2"),
            ("svm", "lambda", "0", "1e-4"),
            ("subset", "epochs", "0", "1"),
            ("selector", "epochs", "-1", "1"),
            ("cluster", "restarts", "0", "1"),
            ("cluster", "lda_out_dim", "0", "1"),
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, section, key, bad, good):
        path = tmp_path / "run.ini"
        path.write_text(with_entry(section, f"{key} = {good}"))
        parse_config(path)
        path.write_text(with_entry(section, f"{key} = {bad}"))
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_defaults_come_from_system_config(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text("[run]\nseeds = 5 6\n\n[dataset.target]\nn_groups = 2\n")
        cfg = parse_config(path)
        for seed in cfg.seeds:
            assert cfg.system_config(seed) == SystemConfig(train=TrainConfig(seed=seed))

    def test_every_key_sets_its_field(self, tmp_path):
        path = tmp_path / "all.ini"
        path.write_text(ALL_KEYS_CONFIG)
        parser = configparser.ConfigParser()
        parser.read_string(ALL_KEYS_CONFIG)
        written = {(s, key) for s in parser.sections() for key in parser[s] if not s.startswith("dataset.")}
        assert written - {("run", "seeds")} == {key for key, (owner, _, _) in _KEYS.items() if owner is not RunConfig}
        expected = SystemConfig(
            k=3,
            selector="centroid",
            train=TrainConfig(
                learning_rate=0.01, momentum=0.5, weight_decay=0.002, batch_size=9, epochs=4,
                lr_step_factor=0.5, lr_step_every=11,
            ),
            subset_epochs=5,
            subset_lr=0.003,
            selector_epochs=6,
            svm_lambda=0.04,
            svm_epochs=7,
            lda_out_dim=2,
            kmeans_restarts=8,
        )
        assert parse_config(path).system == expected
        # every field with a key is off its default, so a key that set nothing would show
        for got, default in ((expected, SystemConfig()), (expected.train, TrainConfig())):
            for f in dataclasses.fields(got):
                if f.name not in ("seed", "freeze_below"):
                    assert getattr(got, f.name) != getattr(default, f.name), f.name

    def test_build_and_cluster_report_share_lda_out_dim(self, tmp_path, monkeypatch):
        out_dims = []
        kmeans_runs = []
        lda_fit = cluster.lda_fit
        precluster_classes = cluster.precluster_classes

        def recording(features, labels, out_dim, ridge=None):
            out_dims.append(out_dim)
            return lda_fit(features, labels, out_dim, ridge)

        def recording_kmeans(features, labels, tap, lda, k, rng, restarts):
            kmeans_runs.append((rng.seed, restarts))
            return precluster_classes(features, labels, tap, lda, k, rng, restarts=restarts)

        monkeypatch.setattr(cluster, "lda_fit", recording)
        monkeypatch.setattr(cluster, "precluster_classes", recording_kmeans)
        config_file = tmp_path / "run.ini"
        config_file.write_text(with_entry("cluster", "restarts = 3"))
        cfg = parse_config(config_file)
        cli.cmd_cluster_report(cfg, tmp_path)
        datasets = cfg.build_datasets(cfg.seeds[0])
        pipeline.build_system(
            datasets[cfg.target], graph=cfg.stage_graph(), extra_datasets=datasets, config=cfg.system_config(3)
        )
        assert out_dims == [3, 3]  # min(C - 1, 32) for the 4-class target
        # three taps in cluster-report, then the build: one seed and the configured restarts
        assert kmeans_runs == [(derive_seed(3, 101), 3)] * 4
