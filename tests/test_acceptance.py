"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  The deterministic synthetic benchmark is 3 groups x 4
classes, 100 train / 30 test per class, 3x16x16 images.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools

import numpy as np
import pytest

from subsetlearn import cluster, convnet, fusion, pipeline, subset
from subsetlearn.cluster import lda_fit
from subsetlearn.convnet import Tap, TrainConfig
from subsetlearn.numkit import Rng, derive_seed
from subsetlearn.pipeline import StageGraph, StageSpec, SystemConfig
from subsetlearn.subset import CentroidSelector

SEEDS = (1, 2, 3, 4, 5)

BENCH_SYSTEM = dict(
    k=3,
    selector="network",
    subset_lr=0.01,
    subset_epochs=50,
    selector_epochs=20,
)
BENCH_TRAIN = dict(epochs=30, learning_rate=0.02)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_builds():
    """One full system build per seed on the benchmark, shared by criteria 6, 7, 9."""
    builds = []
    for seed in SEEDS:
        ds = pipeline.generate_synthetic(seed=seed)
        config = SystemConfig(train=TrainConfig(seed=seed, **BENCH_TRAIN), **BENCH_SYSTEM)
        bundle = pipeline.build_system(ds, config=config)
        builds.append((seed, ds, bundle))
    return builds


def test_criterion_01_gradient_correctness():
    spec = convnet.NetSpec(
        layers=(
            convnet.Conv(2, 3, 1),
            convnet.Relu(),
            convnet.MaxPool(2, 2),
            convnet.Conv(3, 2, 1),
            convnet.Relu(),
            convnet.Flatten(),
            convnet.Fc(5),
            convnet.Relu(),
            convnet.Fc(3),
            convnet.Softmax(),
        ),
        input_shape=(2, 8, 8),
    )
    params = convnet.init_params(spec, Rng(7))
    batch = Rng(11).normal((4, 2, 8, 8))
    labels = np.array([0, 1, 2, 1])
    _, grads = convnet.loss_and_grads(spec, params, batch, labels)
    h = 1e-5
    worst = 0.0
    for li, lp in enumerate(params.layers):
        if lp is None:
            continue
        for attr in ("weight", "bias"):
            arr = getattr(lp, attr).reshape(-1)
            analytic = getattr(grads.layers[li], attr).reshape(-1)
            for idx in range(arr.size):
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = convnet.loss_and_grads(spec, params, batch, labels)
                arr[idx] = orig - h
                down, _ = convnet.loss_and_grads(spec, params, batch, labels)
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]), 1e-8))
    report(1, "gradient correctness", worst < 1e-4, f"max rel err {worst:.2e}")


def test_criterion_02_kmeans_brute_force_oracle():
    hits = 0
    all_monotone = True
    for trial in range(100):
        points = np.random.default_rng(1000 + trial).normal(size=(8, 2))
        model = cluster.kmeans_fit(points, 2, restarts=20, rng=Rng(trial))
        all_monotone &= bool(np.all(np.diff(model.inertia_trace) <= 1e-9))
        best = np.inf
        for assign in itertools.product((0, 1), repeat=8):
            assign = np.array(assign)
            if assign.min() == assign.max():
                continue
            cost = 0.0
            for j in (0, 1):
                rows = points[assign == j]
                cost += ((rows - rows.mean(axis=0)) ** 2).sum()
            best = min(best, cost)
        if model.inertia <= best * (1 + 1e-9) + 1e-12:
            hits += 1
    report(2, "k-means brute-force oracle", hits >= 90 and all_monotone,
           f"{hits}/100 optimal, traces monotone: {all_monotone}")


def test_criterion_03_lda_whitened_eigen_oracle():
    worst = 1.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        centers = rng.normal(scale=3.0, size=(3, 2))
        feats = np.concatenate([c + 0.6 * rng.normal(size=(50, 2)) for c in centers])
        labels = np.repeat(np.arange(3), 50)
        model = lda_fit(feats, labels, out_dim=2)
        # independent oracle: symmetric inverse-sqrt whitening via numpy eigh
        mu = feats.mean(axis=0)
        s_w = np.zeros((2, 2))
        s_b = np.zeros((2, 2))
        for c in range(3):
            rows = feats[labels == c]
            diff = rows - rows.mean(axis=0)
            s_w += diff.T @ diff
            md = (rows.mean(axis=0) - mu)[:, None]
            s_b += rows.shape[0] * (md @ md.T)
        s_w += 1e-3 * np.trace(s_w) / 2 * np.eye(2)  # the product's ridge rule
        evals, evecs = np.linalg.eigh(s_w)
        inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
        w, u = np.linalg.eigh(inv_sqrt @ s_b @ inv_sqrt)
        order = np.argsort(w)[::-1]
        oracle = inv_sqrt @ u[:, order]
        oracle /= np.sqrt((oracle * oracle).sum(axis=0))
        for j in range(2):
            mine = model.projection[:, j]
            norm = np.linalg.norm(mine)
            if norm == 0.0:
                continue  # zero Fisher ratio direction carries no signal
            cosine = abs((mine / norm) @ oracle[:, j])
            worst = min(worst, cosine)
    report(3, "LDA whitened-eigen oracle", worst > 0.999, f"min |cosine| {worst:.6f}")


def test_criterion_04_svm_separable_and_monotone():
    all_perfect = True
    all_monotone = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        feats = np.concatenate([c + 0.5 * rng.normal(size=(25, 2)) for c in centers])
        labels = np.repeat(np.arange(3), 25)
        model = fusion.svm_train(feats, labels, lam=1e-4, epochs=200)
        preds, _ = fusion.svm_predict_batch(model, feats)
        all_perfect &= bool((preds == labels).all())
        all_monotone &= bool(np.all(np.diff(model.checkpoint_objectives, axis=0) <= 1e-9))
    report(4, "SVM separable + monotone checkpoints", all_perfect and all_monotone,
           f"perfect 20/20: {all_perfect}, monotone: {all_monotone}")


def test_criterion_05_fusion_invariants():
    rng = np.random.default_rng(0)
    d_g, k, d_s = 6, 4, 5
    n = 10_000
    base = rng.normal(size=(n, d_g))
    feats = rng.normal(size=(n, d_s))
    chosen = rng.integers(0, k, size=n)
    fused = fusion.fuse_batch(base, feats, chosen, k)
    ok_width = fused.shape == (n, d_g + k * d_s)
    blocks = fused[:, d_g:].reshape(n, k, d_s)
    nonzero = (np.abs(blocks) > 0.0).any(axis=2)
    ok_one_block = bool((nonzero.sum(axis=1) == 1).all()) and bool(
        (nonzero[np.arange(n), chosen]).all()
    )
    scales = 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    rescaled = fusion.fuse_batch(base * scales, feats * scales, chosen, k)
    ok_scaling = float(np.abs(rescaled - fused).max()) < 1e-12
    labels = rng.integers(0, 3, size=n)
    labels[:3] = [0, 1, 2]
    model = fusion.svm_train(fused[:300], labels[:300], lam=1e-3, epochs=40)
    pred_a, _ = fusion.svm_predict_batch(model, fused)
    pred_b, _ = fusion.svm_predict_batch(model, rescaled)
    ok_argmax = bool(np.array_equal(pred_a, pred_b))
    report(5, "fusion invariants over 10^4 inputs",
           ok_width and ok_one_block and ok_scaling and ok_argmax,
           f"width {ok_width}, one-block {ok_one_block}, scaling {ok_scaling}, argmax {ok_argmax}")


def test_criterion_06_subset_features_beat_baseline(benchmark_builds):
    system_accs = []
    baseline_accs = []
    for seed, ds, bundle in benchmark_builds:
        system_accs.append(pipeline.evaluate(bundle, ds, "test").mean_accuracy)
        baseline_accs.append(pipeline.evaluate_feature_svm(bundle.base, ds).mean_accuracy)
    gain = float(np.mean(system_accs) - np.mean(baseline_accs))
    report(6, "subset-feature system beats base-feature SVM by >= 2 pts", gain >= 0.02,
           f"system {np.mean(system_accs):.4f} vs baseline {np.mean(baseline_accs):.4f}, gain {100 * gain:+.2f} pts")


def test_criterion_07_selector_ordering(benchmark_builds):
    net_accs = []
    cen_accs = []
    for seed, ds, bundle in benchmark_builds:
        te = ds.rows("test")
        truth = bundle.cluster_map.class_to_subset[ds.labels[te]]
        base_feats = bundle.base.forward(ds.images[te], Tap.FC_PENULTIMATE)
        chosen_net = subset.select_batch(bundle.ensemble.selector, ds.images[te], base_feats)
        centroid = CentroidSelector(kmeans=bundle.kmeans, lda=bundle.lda)
        chosen_cen = subset.select_batch(centroid, ds.images[te], base_feats)
        net_accs.append(float((chosen_net == truth).mean()))
        cen_accs.append(float((chosen_cen == truth).mean()))
    ok = np.mean(net_accs) >= np.mean(cen_accs)
    report(7, "network selector >= centroid selector", ok,
           f"network {np.mean(net_accs):.4f} vs centroid {np.mean(cen_accs):.4f}")


def test_criterion_08_progressive_transfer_ordering():
    gentle_ft = dict(epochs=10, learning_rate=1e-3, freeze_below=7)  # fc layers only
    accs = {name: [] for name in ("g1", "g2", "g2b", "g3")}
    for seed in SEEDS:
        general = pipeline.generate_synthetic(
            n_groups=4, classes_per_group=4, train_per_class=60, test_per_class=2,
            seed=derive_seed(seed, 1), style_seed=seed,
        )
        domain = pipeline.generate_synthetic(
            n_groups=3, classes_per_group=4, train_per_class=100, test_per_class=2,
            seed=derive_seed(seed, 2), style_seed=seed,
        )
        target = pipeline.generate_synthetic(
            n_groups=3, classes_per_group=4, train_per_class=10, test_per_class=30,
            seed=derive_seed(seed, 3), style_seed=seed,
        )
        datasets = {"general": general, "domain": domain, "target": target}
        cfg = TrainConfig(seed=seed, **BENCH_TRAIN)
        graphs = {
            "g1": StageGraph((StageSpec("target", "rt"),)),
            "g2": StageGraph((StageSpec("domain", "rt"), StageSpec("target", "ft", **gentle_ft))),
            "g2b": StageGraph((StageSpec("general", "rt"), StageSpec("domain", "ft"))),
            "g3": StageGraph(
                (StageSpec("general", "rt"), StageSpec("domain", "ft"), StageSpec("target", "ft", **gentle_ft))
            ),
        }
        for name, graph in graphs.items():
            result = pipeline.run_stage_graph(graph, datasets, cfg)
            accs[name].append(pipeline.evaluate_feature_svm(result.net, target).mean_accuracy)
    means = {name: float(np.mean(v)) for name, v in accs.items()}
    ok_two_stage = means["g2"] > means["g1"]
    ok_three_stage = means["g3"] >= means["g2b"] - 0.005
    report(8, "progressive-transfer ordering", ok_two_stage and ok_three_stage,
           f"rt {means['g1']:.4f} < domain-rt+ft {means['g2']:.4f}; "
           f"3-stage {means['g3']:.4f} vs 2-stage-domain {means['g2b']:.4f}")


def test_criterion_09_preclustering_tap_ordering(benchmark_builds):
    conv_sils = []
    lda_sils = []
    for _, ds, bundle in benchmark_builds:
        conv_rep, _, lda_rep = pipeline.tap_reports(bundle, ds)
        conv_sils.append(conv_rep.silhouette)
        lda_sils.append(lda_rep.silhouette)
    ok = np.mean(lda_sils) >= np.mean(conv_sils)
    report(9, "lda-projected tap silhouette >= conv tap silhouette", ok,
           f"lda {np.mean(lda_sils):.4f} vs conv {np.mean(conv_sils):.4f}")


TINY_CONFIG = """
[run]
seeds = 3
k = 2
selector = network
target = target

[dataset.target]
n_groups = 2
classes_per_group = 2
train_per_class = 12
test_per_class = 4

[train]
epochs = 2
learning_rate = 0.02
batch_size = 16

[svm]
epochs = 20
"""


def test_criterion_10_determinism_and_persistence(run_cli, tmp_path, benchmark_builds):
    name = "determinism & persistence"
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)

    # (a) identical seed + config reproduce bit-identical metrics through the CLI
    run_a = run_cli("--out-dir", str(tmp_path / "a"), "train", "--config", str(config), cwd=tmp_path)
    run_b = run_cli("--out-dir", str(tmp_path / "b"), "train", "--config", str(config), cwd=tmp_path)
    ok_exit = run_a.returncode == 0 and run_b.returncode == 0
    for run in (run_a, run_b):
        if run.returncode != 0:
            report(10, name, False, f"train exit {run.returncode}: {run.stderr.strip()}")
    metrics_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    metrics_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    bundle_a = (tmp_path / "a" / "bundle-seed3.sfl").read_bytes()
    bundle_b = (tmp_path / "b" / "bundle-seed3.sfl").read_bytes()
    ok_deterministic = metrics_a == metrics_b and bundle_a == bundle_b

    # (b) save -> load -> save is byte-identical, on a real benchmark bundle
    _, _, bundle = benchmark_builds[0]
    p1, p2 = tmp_path / "bundle1.sfl", tmp_path / "bundle2.sfl"
    pipeline.save_bundle(p1, bundle)
    pipeline.save_bundle(p2, pipeline.load_bundle(p1))
    ok_roundtrip = p1.read_bytes() == p2.read_bytes()

    # (c) corrupted artifacts fail with the designated exit codes
    gen = run_cli("--out-dir", str(tmp_path / "ds"), "gen", "--config", str(config), cwd=tmp_path)
    if gen.returncode != 0:
        report(10, name, False, f"gen exit {gen.returncode}: {gen.stderr.strip()}")
    dataset_path = tmp_path / "ds" / "target.sfl"
    corrupt = tmp_path / "corrupt.sfl"
    data = bytearray((tmp_path / "a" / "bundle-seed3.sfl").read_bytes())
    data[len(data) // 2] ^= 0xFF
    corrupt.write_bytes(bytes(data))
    eval_corrupt = run_cli(
        "--out-dir", str(tmp_path / "e1"), "eval", str(corrupt), str(dataset_path), cwd=tmp_path
    )
    ok_corrupt = gen.returncode == 0 and eval_corrupt.returncode == 3

    mismatch_ds = tmp_path / "mismatch.sfl"
    pipeline.save_dataset(
        mismatch_ds,
        pipeline.generate_synthetic(n_groups=3, classes_per_group=2, train_per_class=3, test_per_class=2, seed=1),
    )
    eval_mismatch = run_cli(
        "--out-dir", str(tmp_path / "e2"),
        "eval", str(tmp_path / "a" / "bundle-seed3.sfl"), str(mismatch_ds), cwd=tmp_path,
    )
    ok_mismatch = eval_mismatch.returncode == 4

    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[run]\nseeds = 1\n")  # no datasets
    gen_bad = run_cli("--out-dir", str(tmp_path / "e3"), "gen", "--config", str(bad_config), cwd=tmp_path)
    ok_config = gen_bad.returncode == 2

    report(10, name,
           ok_exit and ok_deterministic and ok_roundtrip and ok_corrupt and ok_mismatch and ok_config,
           f"deterministic {ok_deterministic}, roundtrip {ok_roundtrip}, "
           f"exit3 {ok_corrupt}, exit4 {ok_mismatch}, exit2 {ok_config}")
