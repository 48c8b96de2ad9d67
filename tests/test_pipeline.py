import collections
import dataclasses
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from subsetlearn import cluster, convnet, fusion, pipeline, subset
from subsetlearn.convnet import Conv, Fc, Flatten, MaxPool, NetSpec, Relu, Softmax, Tap, TrainConfig
from subsetlearn.errors import ContainerError, ContractError, InvariantError, ShapeError
from subsetlearn.numkit import Rng
from subsetlearn.pipeline import (
    StageGraph,
    StageSpec,
    SystemConfig,
    build_system,
    evaluate,
    generate_synthetic,
    load_bundle,
    load_dataset,
    metrics_from_predictions,
    run_stage_graph,
    save_bundle,
    save_dataset,
)

TINY = dict(
    n_groups=2,
    classes_per_group=2,
    train_per_class=12,
    test_per_class=4,
    image_size=16,
    seed=5,
)

TINY_SYSTEM = SystemConfig(
    k=2,
    train=TrainConfig(epochs=2, seed=5, learning_rate=0.02, batch_size=16),
    svm_epochs=30,
)


def header_offsets(data: bytes) -> list[int]:
    """Offsets of every container byte outside the float payloads: the body
    bytes a file's metadata, tensor names, ranks and extents live in."""
    (meta_len,) = struct.unpack_from("<I", data, 8)
    offsets = list(range(8, 16 + meta_len))
    cursor = 16 + meta_len
    for _ in range(struct.unpack_from("<I", data, cursor - 4)[0]):
        (name_len,) = struct.unpack_from("<H", data, cursor)
        rank = data[cursor + 2 + name_len]
        header_end = cursor + 3 + name_len + 8 * rank
        shape = struct.unpack_from(f"<{rank}Q", data, header_end - 8 * rank)
        offsets += range(cursor, header_end)
        cursor = header_end + 8 * int(np.prod(shape, dtype=np.int64))
    return offsets


@pytest.fixture(scope="module")
def tiny_bundle():
    ds = generate_synthetic(**TINY)
    return ds, build_system(ds, config=TINY_SYSTEM)


class TestGenerateSynthetic:
    def test_construction_counts_and_groups(self):
        ds = generate_synthetic(n_groups=3, classes_per_group=4, train_per_class=5, test_per_class=2, seed=1)
        assert ds.n_classes == 12
        assert set(ds.labels.tolist()) == set(range(12))
        assert np.all(np.bincount(ds.labels) == 7)
        assert ds.images.shape == (84, 3, 16, 16)
        assert ds.rows("train").size == 60 and ds.rows("test").size == 24
        # group of class c is c // classes_per_group, encoded in the name
        for c, name in enumerate(ds.class_names):
            assert name == f"g{c // 4:02d}c{c % 4:02d}"

    def test_same_seed_bit_identical(self):
        a = generate_synthetic(**TINY)
        b = generate_synthetic(**TINY)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = generate_synthetic(**TINY)
        b = generate_synthetic(**{**TINY, "seed": 6})
        assert not np.array_equal(a.images, b.images)

    def test_images_in_unit_range(self):
        ds = generate_synthetic(**TINY)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_zero_similarity_removes_group_structure(self):
        # silhouette of group-level pre-clustering on raw pixels should look
        # like the shuffled-label baseline when groups share nothing; both are
        # noisy single numbers, so average each side over a few seeds
        ds = generate_synthetic(
            n_groups=3, classes_per_group=4, train_per_class=30, test_per_class=1,
            intra_group_similarity=0.0, seed=9,
        )
        rows = ds.rows("train")
        feats = ds.images[rows].reshape(rows.size, -1)
        labels = ds.labels[rows]
        true_side = np.mean([
            cluster.precluster_classes(feats, labels, Tap.CONV_LAST, None, 3, Rng(s))[2].silhouette
            for s in range(3)
        ])
        shuffled_side = np.mean([
            cluster.precluster_classes(
                feats, labels[Rng(100 + s).permutation(labels.size)], Tap.CONV_LAST, None, 3, Rng(s)
            )[2].silhouette
            for s in range(3)
        ])
        assert abs(true_side - shuffled_side) <= 0.1

    def test_shared_style_seed_aligns_groups(self):
        # same style seed, different class seeds: group means should correlate
        # across datasets much more within a group than across groups
        a = generate_synthetic(n_groups=2, classes_per_group=2, train_per_class=10, test_per_class=1, seed=1, style_seed=42)
        b = generate_synthetic(n_groups=2, classes_per_group=2, train_per_class=10, test_per_class=1, seed=2, style_seed=42)

        def group_mean(ds, g):
            rows = np.isin(ds.labels, [2 * g, 2 * g + 1])
            return ds.images[rows].mean(axis=0).ravel()

        same = np.corrcoef(group_mean(a, 0), group_mean(b, 0))[0, 1]
        cross = np.corrcoef(group_mean(a, 0), group_mean(b, 1))[0, 1]
        assert same > cross

    def test_bad_counts_rejected(self):
        with pytest.raises(ContractError):
            generate_synthetic(n_groups=0, classes_per_group=2, train_per_class=1, test_per_class=1)
        with pytest.raises(ContractError):
            generate_synthetic(image_size=8, jitter=3)


def sweep_datasets():
    """Three small datasets named as in the transfer sweep."""
    return {
        "general": generate_synthetic(**{**TINY, "seed": 7, "n_groups": 2, "classes_per_group": 3}),
        "domain": generate_synthetic(**{**TINY, "seed": 8}),
        "target": generate_synthetic(**TINY),
    }


SWEEP_CFG = TrainConfig(epochs=2, seed=3, learning_rate=0.02, batch_size=12)
GENTLE = dict(epochs=1, learning_rate=1e-3, freeze_below=7)
SWEEP = {
    "g1": StageGraph((StageSpec("target", "rt"),)),
    "g2": StageGraph((StageSpec("domain", "rt"), StageSpec("target", "ft", **GENTLE))),
    "g2b": StageGraph((StageSpec("general", "rt"), StageSpec("domain", "ft"))),
    "g3": StageGraph((StageSpec("general", "rt"), StageSpec("domain", "ft"), StageSpec("target", "ft", **GENTLE))),
}


def assert_same_result(a, b):
    assert a.name == b.name and a.steps == b.steps
    assert a.histories == b.histories
    assert a.net.spec == b.net.spec
    for la, lb in zip(a.net.params.layers, b.net.params.layers, strict=True):
        assert (la is None) == (lb is None)
        if la is not None:
            assert np.array_equal(la.weight, lb.weight) and la.weight.dtype == lb.weight.dtype
            assert np.array_equal(la.bias, lb.bias) and la.bias.dtype == lb.bias.dtype


def count_train_calls(monkeypatch) -> list:
    calls = []
    train = convnet.train

    def counting(*args, **kwargs):
        calls.append(None)
        return train(*args, **kwargs)

    monkeypatch.setattr(convnet, "train", counting)
    return calls


def edit_row(ds, column: str, row: int, index: tuple, edit):
    """A copy of ``ds`` whose ``column[row, *index]`` is replaced by ``edit`` of it."""
    values = getattr(ds, column).copy()
    values[(row, *index)] = edit(values[(row, *index)])
    return dataclasses.replace(ds, **{column: values})


def bump_pixel(datasets, name: str, split: str):
    """``datasets`` with one pixel of the first ``split`` image of ``name`` raised."""
    ds = datasets[name]
    return {**datasets, name: edit_row(ds, "images", ds.rows(split)[0], (2, 7, 9), lambda v: v + 0.25)}


def relabel(datasets, name: str):
    ds = datasets[name]
    new = edit_row(ds, "labels", ds.rows("train")[0], (), lambda y: (y + 1) % ds.n_classes)
    return {**datasets, name: new}


def with_ft(graph, **change):
    return StageGraph((graph.stages[0], dataclasses.replace(graph.stages[1], **change)))


def renamed(datasets, graph):
    names = {"general": "g", "domain": "d"}
    stages = tuple(dataclasses.replace(s, dataset=names[s.dataset]) for s in graph.stages)
    return {names[k]: datasets[k] for k in names}, StageGraph(stages)


# change applied after a g2b run -> (stages that must train again, edit(datasets, graph, cfg))
KEY_CHANGES = {
    "nothing": (0, lambda d, g, c: (d, g, c)),
    "general pixel": (2, lambda d, g, c: (bump_pixel(d, "general", "train"), g, c)),
    "domain pixel": (1, lambda d, g, c: (bump_pixel(d, "domain", "train"), g, c)),
    "domain label": (1, lambda d, g, c: (relabel(d, "domain"), g, c)),
    "domain test pixel": (0, lambda d, g, c: (bump_pixel(d, "domain", "test"), g, c)),  # training reads train rows
    "stage epochs": (1, lambda d, g, c: (d, with_ft(g, epochs=3), c)),
    "stage learning_rate": (1, lambda d, g, c: (d, with_ft(g, learning_rate=0.01), c)),
    "stage freeze_below": (1, lambda d, g, c: (d, with_ft(g, freeze_below=2), c)),
    "seed": (2, lambda d, g, c: (d, g, dataclasses.replace(c, seed=c.seed + 1))),
    "batch_size": (2, lambda d, g, c: (d, g, dataclasses.replace(c, batch_size=c.batch_size - 1))),
    "dataset names": (0, lambda d, g, c: (*renamed(d, g), c)),
}


class TestStageGraph:
    def make_datasets(self):
        a = generate_synthetic(**TINY)
        b = generate_synthetic(**{**TINY, "seed": 7, "n_groups": 2, "classes_per_group": 3})
        return {"a": a, "b": b}

    def test_single_rt_stage_equals_plain_train(self):
        datasets = self.make_datasets()
        cfg = TrainConfig(epochs=2, seed=3, learning_rate=0.02, batch_size=16)
        result = run_stage_graph(StageGraph((StageSpec("a", "rt"),)), datasets, cfg)
        assert result.steps == 1 and result.name == "a-rt"
        ds = datasets["a"]
        rows = ds.rows("train")
        spec = convnet.default_spec(ds.images.shape[1:], ds.n_classes)
        from subsetlearn.numkit import derive_seed

        params = convnet.init_params(spec, Rng(derive_seed(cfg.seed, 1000)))
        import dataclasses

        direct, _ = convnet.train(
            spec, params, ds.images[rows], ds.labels[rows],
            dataclasses.replace(cfg, seed=derive_seed(cfg.seed, 2000), batch_size=min(16, rows.size)),
        )
        for a, b in zip(result.net.params.layers, direct.layers):
            if a is not None:
                assert np.array_equal(a.weight, b.weight)

    def test_two_stage_surgery(self):
        datasets = self.make_datasets()
        cfg = TrainConfig(epochs=2, seed=3, learning_rate=0.02, batch_size=12)
        one = run_stage_graph(StageGraph((StageSpec("a", "rt"),)), datasets, cfg)
        two = run_stage_graph(StageGraph((StageSpec("a", "rt"), StageSpec("b", "ft"))), datasets, cfg)
        assert two.net.spec.class_count == datasets["b"].n_classes
        assert two.name == "a-rt-b-ft" and two.steps == 2
        assert len(two.histories) == 2
        # fine-tuning moved the trunk
        assert not np.array_equal(two.net.params.layers[0].weight, one.net.params.layers[0].weight)

    def test_three_stage_reports_steps(self):
        datasets = self.make_datasets()
        cfg = TrainConfig(epochs=1, seed=3, learning_rate=0.02, batch_size=12)
        graph = StageGraph((StageSpec("a", "rt"), StageSpec("b", "ft"), StageSpec("a", "ft")))
        result = run_stage_graph(graph, datasets, cfg)
        assert result.steps == 3
        assert result.name.count("-ft") == 2

    def test_invalid_graphs(self):
        with pytest.raises(ContractError):
            StageGraph((StageSpec("a", "ft"),))
        with pytest.raises(ContractError):
            StageGraph((StageSpec("a", "rt"), StageSpec("b", "rt")))
        with pytest.raises(ContractError):
            StageGraph(())

    def test_missing_dataset(self):
        with pytest.raises(ContractError):
            run_stage_graph(
                StageGraph((StageSpec("nope", "rt"),)),
                {"a": generate_synthetic(**TINY)},
                TrainConfig(epochs=1, batch_size=8),
            )

    def test_parse_stage_graph(self):
        graph = pipeline.parse_stage_graph("a:rt, b:ft:7")
        assert graph.stages[0] == StageSpec("a", "rt")
        assert graph.stages[1].epochs == 7
        with pytest.raises(ContractError):
            pipeline.parse_stage_graph("a:rt:3:9")

    def test_cached_results_bit_identical_to_cold_runs(self):
        datasets = sweep_datasets()
        cold = {}
        for name, graph in SWEEP.items():
            pipeline._STAGE_CACHE.clear()
            cold[name] = run_stage_graph(graph, datasets, SWEEP_CFG)
        pipeline._STAGE_CACHE.clear()
        for name, graph in SWEEP.items():
            assert_same_result(run_stage_graph(graph, datasets, SWEEP_CFG), cold[name])

    def test_shared_prefix_trains_once(self, monkeypatch):
        calls = count_train_calls(monkeypatch)
        datasets = sweep_datasets()
        run_stage_graph(SWEEP["g2b"], datasets, SWEEP_CFG)
        assert len(calls) == 2
        run_stage_graph(SWEEP["g3"], datasets, SWEEP_CFG)
        assert len(calls) == 3  # only the target:ft stage is new

    @pytest.mark.parametrize("change", KEY_CHANGES)
    def test_every_training_input_is_in_the_key(self, monkeypatch, change):
        trained, edit = KEY_CHANGES[change]
        datasets, graph, cfg = sweep_datasets(), SWEEP["g2b"], SWEEP_CFG
        run_stage_graph(graph, datasets, cfg)
        datasets, graph, cfg = edit(datasets, graph, cfg)
        calls = count_train_calls(monkeypatch)
        run_stage_graph(graph, datasets, cfg)
        assert len(calls) == trained

    def test_least_recently_used_stage_is_evicted(self, monkeypatch):
        datasets = sweep_datasets()

        def run(seed):
            run_stage_graph(SWEEP["g1"], datasets, dataclasses.replace(SWEEP_CFG, seed=seed, epochs=1))

        for seed in range(pipeline.STAGE_CACHE_SIZE):
            run(seed)
        calls = count_train_calls(monkeypatch)
        run(0)  # a hit makes seed 0 the most recently used
        run(pipeline.STAGE_CACHE_SIZE)  # the ninth distinct stage evicts seed 1
        assert len(calls) == 1 and len(pipeline._STAGE_CACHE) == pipeline.STAGE_CACHE_SIZE
        run(0)
        assert len(calls) == 1
        run(1)
        assert len(calls) == 2

    def test_returned_nets_and_histories_cannot_poison_later_hits(self):
        datasets = sweep_datasets()
        first = run_stage_graph(SWEEP["g2b"], datasets, SWEEP_CFG)
        expected = [list(h) for h in first.histories]
        first.histories[0].append(99.0)
        with pytest.raises(ValueError):
            first.net.params.layers[0].weight[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            first.net.params.layers[first.net.spec.head_index()].bias[0] = 1.0
        for _ in range(2):  # a miss, then hits
            result = run_stage_graph(SWEEP["g2b"], datasets, SWEEP_CFG)
            assert result.histories == expected
            assert result.net.params.layers[0].weight.flags.writeable is False
            result.histories[0].append(99.0)


class TestMetrics:
    def test_perfect_predictions(self):
        m = metrics_from_predictions([0, 1, 2], [0, 1, 2], 3)
        assert m.mean_accuracy == 1.0 and m.overall_accuracy == 1.0
        assert np.array_equal(m.confusion, np.eye(3, dtype=int))

    def test_constant_predictor_on_balanced_classes(self):
        y = np.repeat(np.arange(4), 5)
        m = metrics_from_predictions(y, np.zeros_like(y), 4)
        assert m.mean_accuracy == 0.25
        assert m.overall_accuracy == 0.25

    def test_mean_recomputable_from_confusion(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 5, size=100)
        p = rng.integers(0, 5, size=100)
        m = metrics_from_predictions(y, p, 5)
        rows = m.confusion.sum(axis=1)
        mask = rows > 0
        recomputed = (np.diag(m.confusion)[mask] / rows[mask]).mean()
        assert m.mean_accuracy == pytest.approx(recomputed)
        assert m.confusion.sum() == 100


class TestBuildSystem:
    def test_bundle_is_consistent(self, tiny_bundle):
        _, bundle = tiny_bundle
        bundle.validate()
        assert bundle.provenance["graph"] == "target-rt"
        assert bundle.provenance["steps"] == 1

    def test_k1_degenerates_but_builds(self):
        ds = generate_synthetic(**TINY)
        cfg = SystemConfig(k=1, train=TrainConfig(epochs=1, seed=2, learning_rate=0.02, batch_size=16), svm_epochs=10)
        bundle = build_system(ds, config=cfg)
        bundle.validate()
        assert bundle.ensemble.k == 1

    def test_k_above_class_count_rejected(self):
        ds = generate_synthetic(**TINY)
        with pytest.raises(ContractError):
            build_system(ds, config=SystemConfig(k=5, train=TrainConfig(epochs=1, batch_size=8)))

    def test_deterministic_metrics(self):
        ds = generate_synthetic(**TINY)
        a = evaluate(build_system(ds, config=TINY_SYSTEM), ds, "test")
        pipeline._STAGE_CACHE.clear()  # the second build must train its base net again
        b = evaluate(build_system(ds, config=TINY_SYSTEM), ds, "test")
        assert a.mean_accuracy == b.mean_accuracy
        assert a.overall_accuracy == b.overall_accuracy
        assert np.array_equal(a.confusion, b.confusion)

    def test_domain_default_graph(self):
        target = generate_synthetic(**TINY)
        domain = generate_synthetic(**{**TINY, "seed": 8})
        cfg = SystemConfig(k=2, train=TrainConfig(epochs=1, seed=4, learning_rate=0.02, batch_size=16), svm_epochs=10)
        bundle = build_system(target, extra_datasets={"domain": domain}, config=cfg)
        assert bundle.provenance["graph"] == "domain-rt-target-ft"
        assert bundle.provenance["steps"] == 2

    def test_k6_on_default_benchmark_has_no_empty_subsets(self):
        # the reference subset count on the full benchmark; short training is
        # enough since only the partition structure is under test
        ds = generate_synthetic(seed=1)
        cfg = SystemConfig(
            k=6, train=TrainConfig(epochs=2, seed=1, learning_rate=0.02), svm_epochs=10
        )
        bundle = build_system(ds, config=cfg)
        sizes = np.bincount(bundle.cluster_map.class_to_subset, minlength=6)
        assert np.all(sizes >= 1)
        assert all(net.spec.class_count == s for net, s in zip(bundle.ensemble.nets, sizes))

    def test_centroid_selector_system(self):
        ds = generate_synthetic(**TINY)
        cfg = SystemConfig(
            k=2,
            selector="centroid",
            train=TrainConfig(epochs=1, seed=2, learning_rate=0.02, batch_size=16),
            svm_epochs=10,
        )
        bundle = build_system(ds, config=cfg)
        from subsetlearn.subset import CentroidSelector

        assert isinstance(bundle.ensemble.selector, CentroidSelector)
        evaluate(bundle, ds, "test")


class TestEvaluate:
    def test_matches_confusion(self, tiny_bundle):
        ds, bundle = tiny_bundle
        m = evaluate(bundle, ds, "test")
        assert 0.0 <= m.mean_accuracy <= 1.0
        assert 0.0 <= m.overall_accuracy <= 1.0
        assert m.confusion.sum() == ds.rows("test").size
        rows = m.confusion.sum(axis=1)
        mask = rows > 0
        assert m.mean_accuracy == pytest.approx((np.diag(m.confusion)[mask] / rows[mask]).mean())

    def test_class_count_mismatch(self, tiny_bundle):
        _, bundle = tiny_bundle
        other = generate_synthetic(n_groups=3, classes_per_group=2, train_per_class=3, test_per_class=2, seed=1)
        with pytest.raises(ShapeError):
            evaluate(bundle, other, "test")

    def test_does_not_mutate_bundle(self, tiny_bundle):
        ds, bundle = tiny_bundle
        before = bundle.svm.weights.copy()
        base_before = bundle.base.params.layers[0].weight.copy()
        evaluate(bundle, ds, "test")
        assert np.array_equal(bundle.svm.weights, before)
        assert np.array_equal(bundle.base.params.layers[0].weight, base_before)


@pytest.fixture(scope="module")
def centroid_bundle():
    ds = generate_synthetic(**TINY)
    return ds, build_system(ds, config=dataclasses.replace(TINY_SYSTEM, selector="centroid"))


def all_k_reference(bundle, images, chosen=None):
    """Fused features the dense way: every subset net on every image, then max voting."""
    base = bundle.base.forward(images, Tap.FC_PENULTIMATE)
    if chosen is None:
        chosen = subset.select_batch(bundle.ensemble.selector, images, base)
    every = np.stack([net.forward(images, Tap.FC_PENULTIMATE) for net in bundle.ensemble.nets], axis=1)
    return fusion.fuse_batch(base, every, chosen)


def count_forward_images(monkeypatch, bundle):
    """Record (network role, images) for every convnet.forward call from now on."""
    roles = {id(bundle.base.params): "base"}
    if isinstance(bundle.ensemble.selector, subset.NetSelector):
        roles[id(bundle.ensemble.selector.net.params)] = "selector"
    roles.update({id(net.params): f"subset{j}" for j, net in enumerate(bundle.ensemble.nets)})
    calls = []
    forward = convnet.forward

    def counting(spec, params, batch, tap=Tap.HEAD):
        calls.append((roles[id(params)], batch.shape[0]))
        return forward(spec, params, batch, tap)

    monkeypatch.setattr(convnet, "forward", counting)
    return calls


class TestRoutedInference:
    @pytest.mark.parametrize("which", ["tiny_bundle", "centroid_bundle"])
    def test_matches_all_k_reference(self, request, which):
        ds, bundle = request.getfixturevalue(which)
        for split in ("train", "test"):
            rows = ds.rows(split)
            images = ds.images[rows]
            fused = pipeline.fuse_dataset_features(bundle.base, bundle.ensemble, ds.images, rows)
            ref = all_k_reference(bundle, images)
            assert fused.shape == ref.shape
            assert np.abs(fused - ref).max() <= 1e-12
            preds, scores = fusion.svm_predict_batch(bundle.svm, fused)
            ref_preds, ref_scores = fusion.svm_predict_batch(bundle.svm, ref)
            assert np.array_equal(preds, ref_preds)
            assert np.abs(scores - ref_scores).max() <= 1e-12

    @pytest.mark.parametrize("which,per_image", [("tiny_bundle", 3), ("centroid_bundle", 2)])
    def test_one_subset_forward_per_image(self, request, monkeypatch, which, per_image):
        ds, bundle = request.getfixturevalue(which)
        te = ds.rows("test")
        base = bundle.base.forward(ds.images[te], Tap.FC_PENULTIMATE)
        chosen = subset.select_batch(bundle.ensemble.selector, ds.images[te], base)
        calls = count_forward_images(monkeypatch, bundle)
        evaluate(bundle, ds, "test")
        seen = collections.Counter()
        for role, n in calls:
            seen[role] += n
        assert sum(seen.values()) == per_image * te.size
        assert seen["base"] == te.size
        assert seen["selector"] == (te.size if which == "tiny_bundle" else 0)
        for j in range(bundle.ensemble.k):
            assert seen[f"subset{j}"] == int((chosen == j).sum())

    def test_empty_and_single_image_subsets(self, monkeypatch, tiny_bundle):
        # a full chunk and a partial one: in the first subset 1 gets one
        # image, in the second it gets none
        ds, bundle = tiny_bundle
        full = pipeline.FORWARD_CHUNK
        te = np.resize(ds.rows("test"), full + 4)  # the test split repeated
        data = pipeline.DatasetHandle(
            images=ds.images[te], labels=ds.labels[te], split=np.full(te.size, pipeline.TEST, np.uint8),
            class_names=ds.class_names,
        )
        designed = {full: np.where(np.arange(full) == 5, 1, 0), 4: np.zeros(4, dtype=np.int64)}
        select_batch = subset.select_batch

        def routed(selector, images, base_feats):
            select_batch(selector, images, base_feats)
            return designed[images.shape[0]]

        monkeypatch.setattr(subset, "select_batch", routed)
        fused = pipeline.fuse_dataset_features(bundle.base, bundle.ensemble, data.images, data.rows("test"))
        ref = all_k_reference(bundle, data.images, np.concatenate([designed[full], designed[4]]))
        assert np.abs(fused - ref).max() <= 1e-12
        assert np.array_equal(fusion.svm_predict_batch(bundle.svm, fused)[0],
                              fusion.svm_predict_batch(bundle.svm, ref)[0])
        calls = count_forward_images(monkeypatch, bundle)
        evaluate(bundle, data, "test")
        assert calls == [
            ("base", full), ("selector", full), ("subset0", full - 1), ("subset1", 1),
            ("base", 4), ("selector", 4), ("subset0", 4),
        ]


    def test_evaluate_holds_one_chunk_of_images(self, tiny_bundle):
        # 2,400 test images take 14 MiB: a copy of the split would not fit
        ds, bundle = tiny_bundle
        te = np.resize(ds.rows("test"), 2400)
        data = pipeline.DatasetHandle(
            images=ds.images[te], labels=ds.labels[te], split=np.full(te.size, pipeline.TEST, np.uint8),
            class_names=ds.class_names,
        )
        fused_bytes = 8 * te.size * bundle.svm.weights.shape[1]
        tracemalloc.start()
        try:
            evaluate(bundle, data, "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.images.nbytes > 8 << 20
        assert peak < fused_bytes + (8 << 20)


class TestPersistence:
    def test_dataset_round_trip(self, tmp_path):
        ds = generate_synthetic(**TINY)
        path = tmp_path / "ds.sfl"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.images, ds.images)
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.split, ds.split)
        assert loaded.class_names == ds.class_names
        assert loaded.generator == ds.generator

    def test_dataset_save_load_save_byte_identical(self, tmp_path):
        ds = generate_synthetic(**TINY)
        p1, p2 = tmp_path / "a.sfl", tmp_path / "b.sfl"
        save_dataset(p1, ds)
        save_dataset(p2, load_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bundle_round_trip_and_identical_metrics(self, tmp_path, tiny_bundle):
        ds, bundle = tiny_bundle
        path = tmp_path / "bundle.sfl"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        a = evaluate(bundle, ds, "test")
        b = evaluate(loaded, ds, "test")
        assert a.mean_accuracy == b.mean_accuracy
        assert np.array_equal(a.confusion, b.confusion)

    def test_bundle_save_load_save_byte_identical(self, tmp_path, tiny_bundle):
        _, bundle = tiny_bundle
        p1, p2 = tmp_path / "a.sfl", tmp_path / "b.sfl"
        save_bundle(p1, bundle)
        save_bundle(p2, load_bundle(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bundle_with_centroid_selector_round_trip(self, tmp_path):
        ds = generate_synthetic(**TINY)
        cfg = SystemConfig(
            k=2,
            selector="centroid",
            train=TrainConfig(epochs=1, seed=2, learning_rate=0.02, batch_size=16),
            svm_epochs=10,
        )
        bundle = build_system(ds, config=cfg)
        path = tmp_path / "cen.sfl"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        a = evaluate(bundle, ds, "test")
        b = evaluate(loaded, ds, "test")
        assert a.mean_accuracy == b.mean_accuracy

    def test_corrupted_bundle_raises(self, tmp_path, tiny_bundle):
        _, bundle = tiny_bundle
        path = tmp_path / "bundle.sfl"
        save_bundle(path, bundle)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        from subsetlearn.errors import ChecksumError

        with pytest.raises(ChecksumError):
            load_bundle(path)

    def test_shape_tampered_bundle_rejected_at_load(self, tmp_path, tiny_bundle):
        from subsetlearn import container

        _, bundle = tiny_bundle
        path = tmp_path / "bundle.sfl"
        save_bundle(path, bundle)
        tensors, meta = container.read_container(path)
        tensors["base/0/weight"] = tensors["base/0/weight"][:, :, :2, :2]
        container.write_container(path, tensors, meta)
        with pytest.raises(InvariantError):
            load_bundle(path)

    def test_dataset_container_is_not_a_bundle(self, tmp_path):
        ds = generate_synthetic(**TINY)
        path = tmp_path / "ds.sfl"
        save_dataset(path, ds)
        with pytest.raises(InvariantError):
            load_bundle(path)

    @pytest.mark.parametrize(
        "name,edit",
        [
            ("labels", lambda v: v + 0.4),
            ("labels", lambda v: v - 0.4),
            ("splits", lambda v: 0.3 + 0.5 * v),  # 0 -> 0.3, 1 -> 0.8
            ("splits", lambda v: v + 256),
        ],
        ids=["labels+0.4", "labels-0.4", "splits-0.3-0.8", "splits+256"],
    )
    def test_dataset_integer_tensors_must_be_exact(self, tmp_path, name, edit):
        path = tmp_path / "ds.sfl"
        save_dataset(path, generate_synthetic(**TINY))
        tensors, meta = pipeline.container.read_container(path)
        tensors[name] = edit(tensors[name])
        pipeline.container.write_container(path, tensors, meta)
        with pytest.raises(InvariantError, match=name):
            load_dataset(path)

    @pytest.mark.parametrize("edit", [lambda v: v + 0.4, lambda v: v - 0.3], ids=["+0.4", "-0.3"])
    def test_bundle_class_to_subset_must_be_exact(self, tmp_path, tiny_bundle, edit):
        path = tmp_path / "b.sfl"
        save_bundle(path, tiny_bundle[1])
        tensors, meta = pipeline.container.read_container(path)
        tensors["cluster/class_to_subset"] = edit(tensors["cluster/class_to_subset"])
        pipeline.container.write_container(path, tensors, meta)
        with pytest.raises(InvariantError, match="class_to_subset"):
            load_bundle(path)

    @pytest.mark.parametrize("meta", ["[]", "null", "3", '"bundle"'])
    def test_bundle_metadata_must_be_an_object(self, tmp_path, tiny_bundle, meta):
        path = tmp_path / "b.sfl"
        save_bundle(path, tiny_bundle[1])
        tensors, _ = pipeline.container.read_container(path)
        pipeline.container.write_container(path, tensors, meta)
        with pytest.raises(InvariantError, match="not a JSON object"):
            load_bundle(path)

    @pytest.mark.parametrize("meta", ["[]", "null", "3", '"dataset"'])
    def test_dataset_metadata_must_be_an_object(self, tmp_path, meta):
        path = tmp_path / "ds.sfl"
        save_dataset(path, generate_synthetic(**TINY))
        tensors, _ = pipeline.container.read_container(path)
        pipeline.container.write_container(path, tensors, meta)
        with pytest.raises(InvariantError, match="not a JSON object"):
            load_dataset(path)

    @pytest.mark.parametrize("names", ['"abcdefgh"', "[0, 1, 2, 3]", "null", '{"a": 1}'])
    def test_dataset_class_names_must_be_a_list_of_strings(self, tmp_path, names):
        path = tmp_path / "ds.sfl"
        save_dataset(path, generate_synthetic(**TINY))
        tensors, meta = pipeline.container.read_container(path)
        info = json.loads(meta)
        info["class_names"] = json.loads(names)
        pipeline.container.write_container(path, tensors, json.dumps(info))
        with pytest.raises(InvariantError, match="class_names"):
            load_dataset(path)

    @pytest.mark.parametrize("kind", ["bundle", "dataset"])
    def test_byte_edits_raise_only_container_errors(self, tmp_path, tiny_bundle, kind):
        ds, bundle = tiny_bundle
        path = tmp_path / f"{kind}.sfl"
        save_bundle(path, bundle) if kind == "bundle" else save_dataset(path, ds)
        load = load_bundle if kind == "bundle" else load_dataset
        clean = path.read_bytes()
        rng = np.random.default_rng(2024)
        for offset in rng.choice(header_offsets(clean), size=300):
            data = bytearray(clean)
            data[offset] = int(rng.integers(256))
            data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))  # so the body is parsed
            path.write_bytes(bytes(data))
            try:
                load(path)
            except ContainerError:
                pass

    def test_layer_json_round_trip(self):
        spec = NetSpec(
            layers=(
                Conv(5, 3, 2), Relu(), MaxPool(3, 1), Conv(4, 2, 1), Flatten(),
                Fc(7), Relu(), Fc(3), Softmax(),
            ),
            input_shape=(2, 15, 13),
            class_count=3,
        )
        obj = json.loads(json.dumps(pipeline._spec_to_json(spec)))
        assert obj == {
            "input": [2, 15, 13],
            "classes": 3,
            "layers": [
                ["conv", 5, 3, 2], ["relu"], ["maxpool", 3, 1], ["conv", 4, 2, 1], ["flatten"],
                ["fc", 7], ["relu"], ["fc", 3], ["softmax"],
            ],
        }
        assert pipeline._spec_from_json(obj) == spec

    @pytest.mark.parametrize(
        "index,entry",
        [
            (1, ["relu", 99]),
            (0, ["conv", 8.9, 3, 1]),
            (0, ["conv", 8, 3]),
            (0, ["conv", "8", 3, 1]),
            (7, ["fc", True]),
            (7, ["fc"]),
            (2, ["pool", 2, 2]),
            (2, []),
            (2, "maxpool"),
        ],
    )
    def test_malformed_layer_json_rejected(self, index, entry):
        obj = pipeline._spec_to_json(convnet.default_spec())
        obj["layers"][index] = entry
        with pytest.raises(InvariantError, match="malformed network description"):
            pipeline._spec_from_json(obj)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("input", [3, 16.7, 16]),
            ("input", ["3", "16", "16"]),
            ("input", [3, 16]),
            ("input", "3x16x16"),
            ("classes", 12.9),
            ("classes", True),
            ("classes", "12"),
        ],
    )
    def test_malformed_input_or_classes_rejected(self, key, value):
        obj = pipeline._spec_to_json(convnet.default_spec())
        obj[key] = value
        with pytest.raises(InvariantError, match="malformed network description"):
            pipeline._spec_from_json(obj)


class TestFeatureSvmProtocol:
    def test_runs_and_scores(self, tiny_bundle):
        ds, bundle = tiny_bundle
        m = pipeline.evaluate_feature_svm(bundle.base, ds, epochs=30)
        assert 0.0 <= m.mean_accuracy <= 1.0
