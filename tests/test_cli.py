import configparser
import dataclasses
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from subsetlearn import cli, cluster, container, convnet, pipeline
from subsetlearn.config import _KEYS, RunConfig, parse_config
from subsetlearn.convnet import Tap, TrainConfig
from subsetlearn.errors import ConfigError
from subsetlearn.numkit import Rng, derive_seed
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
batch_size = 9
epochs = 4

[subset]
epochs = 5
learning_rate = 0.003

[selector]
epochs = 6

[svm]
epochs = 7

[cluster]
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
        bad.write_text(CONFIG.replace("[svm]\nepochs = 20", "[svm]\nepochs = 0"))
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "train", "--config", str(bad), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "svm_epochs" in result.stderr
        assert not (out / "bundle-seed3.sfl").exists()

    def test_non_finite_learning_rate_exit_2_before_training(self, run_cli, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG.replace("learning_rate = 0.02", "learning_rate = nan"))
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "train", "--config", str(bad), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "learning_rate" in result.stderr
        assert not (out / "bundle-seed3.sfl").exists()

    @pytest.mark.parametrize("ds_id", ["a,b", "a:b", "a b"])
    def test_dataset_id_a_stage_cannot_name_exit_2(self, run_cli, tmp_path, ds_id):
        # "a,b" would put a comma into the system name that metrics.csv holds unquoted
        bad = tmp_path / "bad.ini"
        config = CONFIG.replace("target = target", f"target = {ds_id}")
        bad.write_text(config.replace("[dataset.target]", f"[dataset.{ds_id}]"))
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), "train", "--config", str(bad), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "dataset id" in result.stderr
        assert not (out / "metrics.csv").exists()


REPORT_CONFIGS = {
    "network": CONFIG,
    "three_stage_centroid": THREE_STAGE_CONFIG + "\n[cluster]\nrestarts = 3\n",
}


@pytest.fixture(scope="module")
def trained(run_cli, tmp_path_factory):
    """``trained(name)`` -> (config, bundle, dataset) paths; ``train`` and
    ``gen`` run once per REPORT_CONFIGS entry, on first use."""
    built = {}

    def get(name):
        if name not in built:
            out = tmp_path_factory.mktemp(name)
            config = out / "run.ini"
            config.write_text(REPORT_CONFIGS[name])
            for command in ("train", "gen"):
                done = run_cli("--out-dir", str(out), command, "--config", str(config), cwd=out)
                assert done.returncode == 0, done.stderr
            built[name] = (config, out / "bundle-seed3.sfl", out / "target.sfl")
        return built[name]

    return get


def edited_bundle(src, dst, edit=None, tensor_edits=None) -> None:
    """Copy the container at src to dst with edit(metadata) applied to its JSON
    metadata and each tensor_edits[name] to tensor name; the CRC32 stays valid."""
    tensors, meta = container.read_container(src)
    info = json.loads(meta)
    if edit is not None:
        edit(info)
    for name, change in (tensor_edits or {}).items():
        tensors[name] = change(tensors[name])
    container.write_container(dst, tensors, json.dumps(info))


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
            ("bundle-seed3.sfl", "provenance", [1, 2]),
            ("bundle-seed3.sfl", "kmeans_seed", 1.5),
            ("bundle-seed3.sfl", "svm_checkpoint_epochs", [1.0]),
            ("bundle-seed3.sfl", "provenance", {"graph": "target-rt", "steps": 1, "seed": "abc", "k": 2,
                                                "selector": "network"}),
            ("bundle-seed3.sfl", "provenance.graph", "target-rt,x\ny"),  # would split its metrics.csv row
            ("bundle-seed3.sfl", "provenance.graph", "target-rt\rx"),
        ],
        ids=[  # fixed, so each case keeps its name when the list changes
            "target.sfl-class_names-abcdefgh",
            "bundle-seed3.sfl-base_spec-value1",
            "bundle-seed3.sfl-base_spec.input-value2",
            "bundle-seed3.sfl-provenance-value4",
            "bundle-seed3.sfl-kmeans_seed-1.5",
            "bundle-seed3.sfl-svm_checkpoint_epochs-value8",
            "bundle-seed3.sfl-provenance-value9",
            "bundle-seed3.sfl-provenance.graph-comma-lf",
            "bundle-seed3.sfl-provenance.graph-cr",
        ],
    )
    def test_malformed_description_exit_3(self, tmp_path, trained, which, key, value):
        _, bundle, dataset = trained("network")
        paths = {bundle.name: bundle, dataset.name: dataset}

        def edit(info):
            if key == "base_spec":
                info[key]["layers"][1] = value
            elif "." in key:
                section, field = key.split(".")
                info[section][field] = value
            else:
                info[key] = value

        edited_bundle(paths[which], tmp_path / which, edit)
        paths[which] = tmp_path / which
        out = tmp_path / "ev"
        assert cli.main(["--out-dir", str(out), "eval", str(paths[bundle.name]), str(paths[dataset.name])]) == 3
        assert not (out / "metrics.csv").exists()

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

    @pytest.mark.parametrize(
        "name,edit,tensor_edits",
        [
            ("network", None, {"svm/biases": lambda t: t[:1]}),
            ("three_stage_centroid", None, {"lda/global_mean": lambda t: t[:1]}),
            ("three_stage_centroid", None, {"lda/projection": lambda t: np.hstack([t, t[:, :1]])}),
            ("network", lambda info: info["selector_spec"].update(input=[3, 17, 17]), None),
        ],
        ids=["svm_biases_length_1", "lda_global_mean_length_1", "lda_projection_wider", "selector_input_17"],
    )
    def test_whole_tensor_edit_exit_3(self, tmp_path, trained, name, edit, tensor_edits):
        _, bundle, dataset = trained(name)
        edited = tmp_path / "edited.sfl"
        edited_bundle(bundle, edited, edit, tensor_edits)
        out = tmp_path / "ev"
        assert cli.main(["--out-dir", str(out), "eval", str(edited), str(dataset)]) == 3
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("which", ["bundle", "dataset"])
    @pytest.mark.parametrize("cut", ["mid_header", "mid_payload", "in_crc"])
    def test_truncated_file_exit_3(self, tmp_path, trained, capsys, which, cut):
        _, bundle, dataset = trained("network")
        paths = {"bundle": bundle, "dataset": dataset}
        data = paths[which].read_bytes()
        (meta_len,) = struct.unpack_from("<I", data, 8)
        keep = {
            "mid_header": 16 + meta_len // 2,  # inside the metadata block
            "mid_payload": len(data) - 8,  # inside the last float of the last tensor
            "in_crc": len(data) - 2,
        }[cut]
        paths[which] = tmp_path / f"{which}.sfl"
        paths[which].write_bytes(data[:keep])
        out = tmp_path / "ev"
        assert cli.main(["--out-dir", str(out), "eval", str(paths["bundle"]), str(paths["dataset"])]) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("name,held,claimed", [
        ("network", "network", "centroid"),
        ("three_stage_centroid", "centroid", "network"),
    ])
    def test_system_name_follows_the_selector_held(self, tmp_path, trained, name, held, claimed):
        _, bundle, dataset = trained(name)
        edited = tmp_path / "edited.sfl"  # provenance as written before it stopped repeating k and selector
        edited_bundle(bundle, edited, lambda info: info["provenance"].update(selector=claimed, k=7))
        assert cli.main(["--out-dir", str(tmp_path), "eval", str(edited), str(dataset)]) == 0
        system_name = (tmp_path / "metrics.csv").read_text().splitlines()[1].split(",")[0]
        assert system_name.endswith(f"+subset({held})")

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


def reference_report(config_path) -> bytes:
    """cluster_report.csv by the recipe of the config-driven command that came
    before ``cluster-report BUNDLE DATASET``: train the stage graph again, fit
    the LDA on its penultimate features, and pre-cluster each tap with the
    configured k and restarts and the rng of seed ``derive_seed(seed, 101)``."""
    cfg = parse_config(config_path)
    seed = cfg.seeds[0]
    datasets = cfg.build_datasets(seed)
    target = datasets[cfg.target]
    system = cfg.system_config(seed)
    net = pipeline.run_stage_graph(cfg.stage_graph(), datasets, system.train).net
    rows = target.rows("train")
    images, labels = target.images[rows], target.labels[rows]
    conv_feats = net.forward(images, Tap.CONV_LAST)
    fc_feats = net.forward(images, Tap.FC_PENULTIMATE)
    lda = cluster.lda_fit(fc_feats, labels, out_dim=min(target.n_classes - 1, cluster.LDA_MAX_DIM))
    lines = ["tap,silhouette,min_size,max_size"]
    for tap, feats, model in (
        ("conv_last", conv_feats, None),
        ("fc_penultimate", fc_feats, None),
        ("lda_fc_penultimate", fc_feats, lda),
    ):
        rng = Rng(derive_seed(seed, 101))
        _, _, report = cluster.precluster_classes(
            feats, labels, tap, model, system.k, rng, restarts=system.kmeans_restarts
        )
        lines.append(report.csv_row())
    return ("\n".join(lines) + "\n").encode()


class TestClusterReport:
    @pytest.mark.parametrize("name", sorted(REPORT_CONFIGS))
    def test_same_bytes_as_retraining_recipe(self, run_cli, tmp_path, trained, name):
        config, bundle, dataset = trained(name)
        result = run_cli("--out-dir", str(tmp_path), "cluster-report", str(bundle), str(dataset), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        written = (tmp_path / "cluster_report.csv").read_bytes()
        assert written == reference_report(config)
        taps = [line.split(",")[0] for line in written.decode().splitlines()]
        assert taps == ["tap", "conv_last", "fc_penultimate", "lda_fc_penultimate"]

    def test_trains_nothing(self, tmp_path, trained, monkeypatch):
        config, bundle, dataset = trained("network")
        expected = reference_report(config)

        def forbidden(*args, **kwargs):
            raise AssertionError("cluster-report must not train")

        for module, name in ((convnet, "train"), (pipeline, "run_stage_graph"), (cluster, "lda_fit")):
            monkeypatch.setattr(module, name, forbidden)
        assert cli.main(["--out-dir", str(tmp_path), "cluster-report", str(bundle), str(dataset)]) == 0
        assert (tmp_path / "cluster_report.csv").read_bytes() == expected

    def test_lda_row_is_the_bundle_cluster_map(self, trained, monkeypatch):
        _, bundle_path, dataset_path = trained("network")
        bundle = pipeline.load_bundle(bundle_path)
        maps = []
        precluster_classes = cluster.precluster_classes

        def recording(*args, **kwargs):
            result = precluster_classes(*args, **kwargs)
            maps.append(result[0])
            return result

        monkeypatch.setattr(cluster, "precluster_classes", recording)
        reports = pipeline.tap_reports(bundle, pipeline.load_dataset(dataset_path))
        assert len(maps) == 3 and reports[2].tap == "lda_fc_penultimate"
        assert np.array_equal(maps[2].class_to_subset, bundle.cluster_map.class_to_subset)
        assert reports[2].cluster_sizes == tuple(np.bincount(bundle.cluster_map.class_to_subset))

    @pytest.mark.parametrize(
        "restarts", [None, 0, 2.5, "3", True], ids=["missing", "zero", "fraction", "string", "bool"]
    )
    def test_bad_kmeans_restarts_exit_3_and_eval_still_works(self, tmp_path, trained, capsys, restarts):
        _, bundle, dataset = trained("network")
        edited = tmp_path / "edited.sfl"

        def edit(info):
            if restarts is None:
                del info["provenance"]["kmeans_restarts"]
            else:
                info["provenance"]["kmeans_restarts"] = restarts

        edited_bundle(bundle, edited, edit)
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out), "cluster-report", str(edited), str(dataset)]) == 3
        assert "kmeans_restarts" in capsys.readouterr().err
        assert not (out / "cluster_report.csv").exists()
        assert cli.main(["--out-dir", str(out), "eval", str(edited), str(dataset)]) == 0

    def test_exit_codes(self, tmp_path, trained):
        _, bundle, dataset = trained("network")
        corrupt = tmp_path / "corrupt.sfl"
        data = bytearray(bundle.read_bytes())
        data[len(data) // 3] ^= 0x55
        corrupt.write_bytes(bytes(data))
        other = tmp_path / "other.sfl"
        pipeline.save_dataset(
            other,
            pipeline.generate_synthetic(n_groups=3, classes_per_group=2, train_per_class=3, test_per_class=2, seed=0),
        )
        out = tmp_path / "out"
        for bundle_path, dataset_path, code in (
            (corrupt, dataset, 3),
            (bundle, other, 4),
            (tmp_path / "missing.sfl", dataset, 1),
        ):
            assert cli.main(["--out-dir", str(out), "cluster-report", str(bundle_path), str(dataset_path)]) == code
            assert not (out / "cluster_report.csv").exists()


def train_exits_2_untrained(tmp_path, monkeypatch, capsys, config: str) -> str:
    """Run ``train`` on ``config`` in-process, assert that it exits 2 having
    trained nothing and written no file, and return its stderr."""
    calls = []
    monkeypatch.setattr(convnet, "train", lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "run.ini"
    path.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", "--config", str(path)]) == 2
    assert not any(out.iterdir()) and calls == []
    return capsys.readouterr().err


class TestConfigParsing:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.ini")

    def test_shipped_configs_parse(self):
        # a key the parser no longer knows would fail every run of the shipped file
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
        assert paths
        for path in paths:
            assert parse_config(path).seeds, path

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
            ("dataset.target", "jiter"),
            ("train", "momentum"),
            ("train", "weight_decay"),
            ("train", "lr_step_factor"),
            ("train", "lr_step_every"),
            ("svm", "lambda"),
            ("cluster", "lda_out_dim"),
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
            ("subset", "epochs", "0", "1"),
            ("selector", "epochs", "-1", "1"),
            ("cluster", "restarts", "0", "1"),
            ("dataset.target", "jitter", "1.5", "2"),
            ("dataset.target", "style_seed", "0.5", "7"),
            ("subset", "learning_rate", "nan", "0.01"),
            ("subset", "learning_rate", "inf", "0.01"),
            ("dataset.target", "noise", "nan", "0.1"),
            ("dataset.target", "glyph_contrast", "nan", "0.2"),
            ("dataset.target", "glyph_contrast", "-inf", "-0.2"),
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, section, key, bad, good):
        path = tmp_path / "run.ini"
        path.write_text(with_entry(section, f"{key} = {good}"))
        parse_config(path)
        path.write_text(with_entry(section, f"{key} = {bad}"))
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize(
        "command,config,args,key",
        [
            ("gen", with_entry("dataset.target", "seed = -5"), (), "seed"),
            ("gen", with_entry("dataset.target", "style_seed = -5"), (), "style_seed"),
            ("gen", with_entry("dataset.target", "channels = 0"), (), "channels"),
            ("train", CONFIG.replace("seeds = 3", "seeds = -3"), (), "[run] seeds"),
            ("train", CONFIG.replace("seeds = 3", "seeds = 1, 1"), (), "[run] seeds"),
            ("train", CONFIG, ("--seed", "-1"), "--seed"),
        ],
        ids=["dataset-seed", "dataset-style-seed", "channels", "negative-run-seed", "repeated-run-seed", "seed-flag"],
    )
    def test_bad_seed_or_channels_exit_2(self, run_cli, tmp_path, command, config, args, key):
        path = tmp_path / "run.ini"
        path.write_text(config)
        out = tmp_path / "out"
        result = run_cli("--out-dir", str(out), command, "--config", str(path), *args, cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert any(line.startswith("error:") and key in line for line in result.stderr.splitlines()), result.stderr
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "config,key",
        [
            (CONFIG.replace("k = 2", "k = 5"), "[run] k"),
            (CONFIG.replace("train_per_class = 10", "train_per_class = 1"), "[dataset.target] train_per_class"),
            (
                CONFIG.replace("n_groups = 2", "n_groups = 1").replace("classes_per_group = 2", "classes_per_group = 1")
                .replace("k = 2", "k = 1"),
                "[dataset.target] n_groups, classes_per_group",
            ),
        ],
        ids=["k-above-class-count", "one-train-row-per-class", "one-class"],
    )
    def test_target_too_small_exits_2_before_training(self, tmp_path, monkeypatch, capsys, config, key):
        err = train_exits_2_untrained(tmp_path, monkeypatch, capsys, config)
        assert any(line.startswith("error:") and key in line for line in err.splitlines()), err

    @pytest.mark.parametrize(
        "keep,message",
        [
            (lambda ds: ds.split == pipeline.TRAIN, "the test split is empty"),
            (lambda ds: ds.labels != 3, "class 'g01c01' has no train row"),
        ],
        ids=["no-test-rows", "class-without-train-rows"],
    )
    def test_file_target_that_cannot_train_exits_2(self, tmp_path, monkeypatch, capsys, keep, message):
        ds = pipeline.generate_synthetic(n_groups=2, classes_per_group=2, train_per_class=6, test_per_class=2)
        rows = keep(ds)
        pipeline.save_dataset(
            tmp_path / "target.sfl",
            dataclasses.replace(ds, images=ds.images[rows], labels=ds.labels[rows], split=ds.split[rows]),
        )
        config = f"[run]\nseeds = 3\nk = 2\n\n[dataset.target]\nfile = {tmp_path / 'target.sfl'}\n"
        err = train_exits_2_untrained(tmp_path, monkeypatch, capsys, config)
        assert f"error: [dataset.target] file: {message}" in err

    def test_file_stage_dataset_without_train_rows_exits_2(self, tmp_path, monkeypatch, capsys):
        ds = pipeline.generate_synthetic(n_groups=2, classes_per_group=2, train_per_class=6, test_per_class=2, seed=1)
        rows = ds.split == pipeline.TEST
        pipeline.save_dataset(
            tmp_path / "domain.sfl",
            dataclasses.replace(ds, images=ds.images[rows], labels=ds.labels[rows], split=ds.split[rows]),
        )
        config = with_entry("dataset.domain", f"file = {tmp_path / 'domain.sfl'}") + (
            "\n[graph]\nstages = target:rt domain:ft\n"
        )
        err = train_exits_2_untrained(tmp_path, monkeypatch, capsys, config)
        assert "error: [dataset.domain] file: the train split is empty" in err

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
            train=TrainConfig(learning_rate=0.01, batch_size=9, epochs=4),
            subset_epochs=5,
            subset_lr=0.003,
            selector_epochs=6,
            svm_epochs=7,
            kmeans_restarts=8,
        )
        assert parse_config(path).system == expected
        # every field with a key is off its default, so a key that set nothing would show
        for got, default in ((expected, SystemConfig()), (expected.train, TrainConfig())):
            for f in dataclasses.fields(got):
                if f.name != "seed":
                    assert getattr(got, f.name) != getattr(default, f.name), f.name
