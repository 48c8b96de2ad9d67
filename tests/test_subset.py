import dataclasses
import logging

import numpy as np
import pytest

from subsetlearn import convnet, pipeline, subset
from subsetlearn.cluster import ClassClusterMap, kmeans_assign, lda_transform
from subsetlearn.convnet import Network, Tap, TrainConfig
from subsetlearn.errors import ContractError
from subsetlearn.numkit import Rng, derive_seed
from subsetlearn.subset import CentroidSelector


@pytest.fixture(scope="module")
def toy_data():
    ds = pipeline.generate_synthetic(
        n_groups=2, classes_per_group=2, train_per_class=12, test_per_class=4, seed=3
    )
    rows = ds.rows("train")
    return ds, ds.images[rows], ds.labels[rows]


@pytest.fixture(scope="module")
def base_net(toy_data):
    ds, images, labels = toy_data
    spec = convnet.default_spec(ds.images.shape[1:], ds.n_classes)
    params = convnet.init_params(spec, Rng(1))
    cfg = TrainConfig(epochs=2, batch_size=16, seed=1, learning_rate=0.02)
    params, _ = convnet.train(spec, params, images, labels, cfg)
    return Network(spec, params)


class TestBuildPartition:
    def test_two_subsets_of_two_classes(self):
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1, 0, 1]))
        labels = np.array([0, 1, 2, 3, 0, 2, 1, 3])
        part = subset.build_partition(cmap, labels)
        assert len(part) == 2
        assert np.array_equal(part[0].classes, [0, 2])
        assert np.array_equal(part[1].classes, [1, 3])
        # remap is ascending original class -> dense local label
        rows0 = part[0].rows
        assert np.array_equal(labels[rows0], [0, 2, 0, 2])
        assert np.array_equal(part[0].local_labels, [0, 1, 0, 1])

    def test_single_subset_is_identity_up_to_reindex(self):
        cmap = ClassClusterMap(class_to_subset=np.zeros(3, dtype=int))
        labels = np.array([2, 0, 1, 2])
        part = subset.build_partition(cmap, labels)
        assert np.array_equal(part[0].rows, np.arange(4))
        assert np.array_equal(part[0].local_labels, labels)

    def test_sizes_sum_to_dataset(self):
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1, 2, 1]))
        labels = np.repeat(np.arange(4), 7)
        part = subset.build_partition(cmap, labels)
        assert sum(info.rows.size for info in part) == labels.size

    def test_membership_stable_under_row_permutation(self):
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1, 0]))
        labels = np.array([0, 1, 2, 0, 1, 2, 0])
        part_a = subset.build_partition(cmap, labels)
        perm = np.array([6, 2, 5, 0, 3, 1, 4])
        part_b = subset.build_partition(cmap, labels[perm])
        for sa, sb in zip(part_a, part_b):
            # membership sets are about which underlying rows belong: map back
            assert sorted(perm[sb.rows].tolist()) == sorted(sa.rows.tolist())

    def test_unmapped_class_error(self):
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1]))
        with pytest.raises(ContractError):
            subset.build_partition(cmap, np.array([0, 1, 2]))


class TestTrainSubsetNets:
    def test_heads_match_subset_class_counts(self, toy_data, base_net):
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 0, 1, 1]))
        part = subset.build_partition(cmap, labels)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=5, learning_rate=0.002)
        nets = subset.train_subset_nets(part, images, base_net, cfg)
        assert [net.spec.class_count for net in nets] == [2, 2]
        head = nets[0].spec.head_index()
        assert nets[0].params.layers[head].weight.shape[0] == 2

    def test_k1_collapses_to_single_finetune(self, toy_data, base_net):
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.zeros(4, dtype=int))
        part = subset.build_partition(cmap, labels)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=7, learning_rate=0.002)
        nets = subset.train_subset_nets(part, images, base_net, cfg)
        head_seed, train_seed = derive_seed(cfg.seed, 0, 0), derive_seed(cfg.seed, 0, 1)
        spec, params = convnet.reinit_head(base_net.spec, base_net.params, 4, Rng(head_seed))
        direct, _ = convnet.train(
            spec, params, images, labels, dataclasses.replace(cfg, seed=train_seed, batch_size=8)
        )
        for a, b in zip(nets[0].params.layers, direct.layers):
            if a is not None:
                assert np.array_equal(a.weight, b.weight)
                assert np.array_equal(a.bias, b.bias)

    def test_single_class_subset_warns_and_trains(self, toy_data, base_net, caplog):
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1, 1, 1]))
        part = subset.build_partition(cmap, labels)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=2, learning_rate=0.002)
        with caplog.at_level(logging.WARNING, logger="subsetlearn.subset"):
            nets = subset.train_subset_nets(part, images, base_net, cfg)
        assert any("single class" in rec.message for rec in caplog.records)
        assert nets[0].spec.class_count == 1

    def test_reproducible_bit_exactly(self, toy_data, base_net):
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1, 0, 1]))
        part = subset.build_partition(cmap, labels)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=11, learning_rate=0.002)
        a = subset.train_subset_nets(part, images, base_net, cfg)
        b = subset.train_subset_nets(part, images, base_net, cfg)
        for na, nb in zip(a, b):
            for la, lb in zip(na.params.layers, nb.params.layers):
                if la is not None:
                    assert np.array_equal(la.weight, lb.weight)

    def test_workers_do_not_change_results(self, toy_data, base_net):
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1, 0, 1]))
        part = subset.build_partition(cmap, labels)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=4, learning_rate=0.002)
        a = subset.train_subset_nets(part, images, base_net, cfg, workers=1)
        b = subset.train_subset_nets(part, images, base_net, cfg, workers=2)
        for na, nb in zip(a, b):
            for la, lb in zip(na.params.layers, nb.params.layers):
                if la is not None:
                    assert np.array_equal(la.weight, lb.weight)


class TestSubsetSpecialization:
    def test_subset_nets_beat_restricted_base_within_subsets(self):
        # paired comparison on the confusable-groups benchmark: the per-subset
        # net should beat the base net restricted to the subset's classes for
        # at least K-1 of K subsets, on average over 5 seeds
        import dataclasses

        from subsetlearn import cluster
        from subsetlearn.numkit import derive_seed

        counts = []
        for seed in range(1, 6):
            ds = pipeline.generate_synthetic(
                n_groups=2, classes_per_group=3, train_per_class=60, test_per_class=20, seed=seed
            )
            tr, te = ds.rows("train"), ds.rows("test")
            images, labels = ds.images[tr], ds.labels[tr]
            spec = convnet.default_spec(ds.images.shape[1:], ds.n_classes)
            params = convnet.init_params(spec, Rng(derive_seed(seed, 1000)))
            cfg = TrainConfig(epochs=15, seed=derive_seed(seed, 2000), learning_rate=0.02)
            params, _ = convnet.train(spec, params, images, labels, cfg)
            base = Network(spec, params)
            feats = base.forward(images, Tap.FC_PENULTIMATE)
            lda = cluster.lda_fit(feats, labels, out_dim=min(ds.n_classes - 1, cluster.LDA_MAX_DIM))
            cmap, _, _ = cluster.precluster_classes(
                feats, labels, Tap.FC_PENULTIMATE, lda, 2, Rng(derive_seed(seed, 101))
            )
            part = subset.build_partition(cmap, labels)
            sub_cfg = dataclasses.replace(
                cfg, learning_rate=0.01, epochs=25, seed=derive_seed(seed, 201)
            )
            nets = subset.train_subset_nets(part, images, base, sub_cfg)
            wins = 0
            for k, info in enumerate(part):
                rows = te[np.isin(ds.labels[te], info.classes)]
                local = np.searchsorted(info.classes, ds.labels[rows])
                sub_acc = (nets[k].forward(ds.images[rows], Tap.HEAD).argmax(1) == local).mean()
                restricted = base.forward(ds.images[rows], Tap.HEAD)[:, info.classes]
                base_acc = (restricted.argmax(1) == local).mean()
                wins += sub_acc > base_acc
            counts.append(wins)
        assert np.mean(counts) >= len(part) - 1


class TestSelectors:
    def test_selector_net_labels_and_softmax(self, toy_data, base_net):
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 0, 1, 1]))
        cfg = TrainConfig(epochs=1, batch_size=8, seed=3, learning_rate=0.002)
        sel = subset.train_selector_net(cmap, images, labels, base_net, cfg)
        assert sel.spec.class_count == 2
        probs = sel.forward(images[:5], Tap.HEAD)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_selector_net_beats_chance(self, toy_data, base_net):
        ds, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 0, 1, 1]))
        cfg = TrainConfig(epochs=15, batch_size=16, seed=3, learning_rate=0.01)
        sel = subset.train_selector_net(cmap, images, labels, base_net, cfg)
        te = ds.rows("test")
        chosen = subset.select_batch(sel, ds.images[te], base_net.forward(ds.images[te], Tap.FC_PENULTIMATE))
        truth = cmap.class_to_subset[ds.labels[te]]
        assert (chosen == truth).mean() >= 2.0 / cmap.k  # 2x chance for k=2 means perfect

    def test_select_argmax_and_tie_rule(self, base_net):
        # the decision rule itself: argmax with ties to the lowest index
        probs = np.array([[0.1, 0.7, 0.2], [0.4, 0.2, 0.4]])
        chosen = np.argmax(probs, axis=1)
        assert chosen.tolist() == [1, 0]

    def test_select_single_image_decision(self, toy_data, base_net):
        ds, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 0, 1, 1]))
        cfg = TrainConfig(epochs=1, batch_size=8, seed=3, learning_rate=0.002)
        sel = subset.train_selector_net(cmap, images, labels, base_net, cfg)
        chosen = subset.select_batch(sel, images[:1], base_net.forward(images[:1], Tap.FC_PENULTIMATE))
        assert chosen.shape == (1,)
        probs = sel.forward(images[:1], Tap.HEAD)
        assert chosen[0] == int(probs.argmax())

    def test_centroid_selector_matches_kmeans_assign(self, toy_data, base_net):
        ds, images, labels = toy_data
        feats = base_net.forward(images, Tap.FC_PENULTIMATE)
        from subsetlearn import cluster as _cluster

        lda = _cluster.lda_fit(feats, labels, out_dim=2)
        km = _cluster.kmeans_fit(lda_transform(lda, feats), 2, rng=Rng(0))
        sel = CentroidSelector(kmeans=km, lda=lda)
        chosen = subset.select_batch(sel, images, feats)
        expected = kmeans_assign(km, lda_transform(lda, feats))
        assert np.array_equal(chosen, expected)

    def test_decision_weights_always_one_hot(self, toy_data, base_net):
        # one subset per image: an integer index in [0, k), the same one an
        # image gets alone or inside a batch
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 1, 2, 0]))
        cfg = TrainConfig(epochs=1, batch_size=8, seed=3, learning_rate=0.002)
        sel = subset.train_selector_net(cmap, images, labels, base_net, cfg)
        feats = base_net.forward(images, Tap.FC_PENULTIMATE)
        chosen = subset.select_batch(sel, images, feats)
        assert chosen.shape == (images.shape[0],) and chosen.dtype == np.int64
        assert chosen.min() >= 0 and chosen.max() < cmap.k
        for i in range(images.shape[0]):
            assert subset.select_batch(sel, images[i : i + 1], feats[i : i + 1]).tolist() == [chosen[i]]

    def test_unknown_selector_rejected(self):
        with pytest.raises(ContractError):
            subset.select_batch(object(), np.zeros((1, 3, 16, 16)), np.zeros((1, 8)))


class TestExtractSubsetFeatures:
    @pytest.fixture(scope="class")
    def ensemble(self, toy_data, base_net):
        _, images, labels = toy_data
        cmap = ClassClusterMap(class_to_subset=np.array([0, 0, 1, 1]))
        part = subset.build_partition(cmap, labels)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=5, learning_rate=0.002)
        nets = subset.train_subset_nets(part, images, base_net, cfg)
        return subset.SubsetEnsemble(nets=nets, selector=base_net)

    def test_shapes_and_definition(self, toy_data, ensemble):
        _, images, _ = toy_data
        chosen = np.array([0, 1, 1, 0, 1, 1])
        feats = subset.extract_subset_features(ensemble, images[:6], chosen)
        assert feats.shape == (6, ensemble.feature_dim)
        for k, net in enumerate(ensemble.nets):
            mine = chosen == k
            assert np.array_equal(feats[mine], net.forward(images[:6][mine], Tap.FC_PENULTIMATE))
            # a row's features do not depend on which other rows share its batch
            dense = net.forward(images[:6], Tap.FC_PENULTIMATE)
            assert np.abs(feats[mine] - dense[mine]).max() <= 1e-12

    def test_each_net_runs_only_on_its_rows(self, toy_data, ensemble, monkeypatch):
        _, images, _ = toy_data
        seen = []
        forward = convnet.forward

        def counting(spec, params, batch, tap=Tap.HEAD):
            seen.append((params, batch.shape[0]))
            return forward(spec, params, batch, tap)

        monkeypatch.setattr(convnet, "forward", counting)
        feats = subset.extract_subset_features(ensemble, images[:5], np.zeros(5, dtype=np.int64))
        # subset 1 got no image and its net never ran
        assert [(p is ensemble.nets[0].params, n) for p, n in seen] == [(True, 5)]
        assert np.array_equal(feats, ensemble.nets[0].forward(images[:5], Tap.FC_PENULTIMATE))
        seen.clear()
        subset.extract_subset_features(ensemble, images[:5], np.array([0, 0, 1, 0, 0]))
        assert [n for _, n in seen] == [4, 1]

    def test_identical_nets_identical_features(self, toy_data, base_net):
        _, images, _ = toy_data
        ens = subset.SubsetEnsemble(nets=(base_net, base_net), selector=base_net)
        first = subset.extract_subset_features(ens, images[:4], np.zeros(4, dtype=np.int64))
        second = subset.extract_subset_features(ens, images[:4], np.ones(4, dtype=np.int64))
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("chosen", [[0, 2, 1, 0], [0, -1, 1, 0], [0, 1, 1]])
    def test_bad_choice_rejected(self, toy_data, ensemble, chosen):
        _, images, _ = toy_data
        with pytest.raises(ContractError):
            subset.extract_subset_features(ensemble, images[:4], np.array(chosen))
