"""Experiment runner: spec validation, determinism, manifests, presets."""

import json
import re

import pytest

from sushilab.dynamics import OrbitError, RankOneMachine, Translation
from sushilab.experiment import (
    BATTERY_PRESETS,
    ExperimentSpec,
    list_presets,
    parse_law,
    preset_spec,
    resolve_transformation,
    run,
)
from sushilab.windows import Window


def minimal_spec(**overrides):
    d = {
        "name": "minimal",
        "transformation": "translation",
        "intensity": "1",
        "window": "[0,4)",
        "construction": "poisson",
        "battery": [{"test": "intensity"}],
        "replicates": 400,
        "seed": 7,
    }
    d.update(overrides)
    return d


class TestSpecParsing:
    def test_minimal_round_trip(self):
        spec = ExperimentSpec.from_dict(minimal_spec())
        assert spec.name == "minimal"
        assert spec.construction == "poisson"
        assert spec.window == Window.span(0, 4)

    def test_missing_field_named(self):
        for field in ("name", "transformation", "window", "construction",
                      "replicates", "seed"):
            d = minimal_spec()
            del d[field]
            with pytest.raises(ValueError, match=field):
                ExperimentSpec.from_dict(d)

    def test_bad_construction(self):
        with pytest.raises(ValueError, match="construction"):
            ExperimentSpec.from_dict(minimal_spec(construction="cox"))

    def test_bad_window_literal(self):
        with pytest.raises(ValueError, match="window"):
            ExperimentSpec.from_dict(minimal_spec(window="0..4"))

    def test_unknown_battery_test(self):
        with pytest.raises(ValueError, match=r"battery\[0\]"):
            ExperimentSpec.from_dict(
                minimal_spec(battery=[{"test": "nonesuch"}]))

    def test_bad_expect(self):
        with pytest.raises(ValueError, match="expect"):
            ExperimentSpec.from_dict(
                minimal_spec(battery=[{"test": "intensity",
                                       "expect": "maybe"}]))

    def test_replicates_floor(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentSpec.from_dict(minimal_spec(replicates=50))

    def test_thin_without_buffer_rejected_before_sampling(self):
        d = minimal_spec(construction="thin", window="[0,1)",
                         params={"kappa": "1"})
        with pytest.raises(ValueError, match="kappa-buffer"):
            ExperimentSpec.from_dict(d)

    def test_split_probs_must_sum_to_one(self):
        d = minimal_spec(construction="split",
                         params={"probs": ["1/2", "1/3"]})
        with pytest.raises(ValueError, match="probs"):
            ExperimentSpec.from_dict(d)

    def test_nonzero_drift_rejected(self):
        d = minimal_spec(construction="id",
                         params={"gamma": "1/2",
                                 "law": [{"prob": "1",
                                          "weights": {"0": "1"}}]})
        with pytest.raises(ValueError, match="gamma"):
            ExperimentSpec.from_dict(d)

    def test_law_row_errors_are_located(self):
        with pytest.raises(ValueError, match=r"params\.law\[1\]"):
            parse_law([{"prob": "1", "weights": {"0": "1"}},
                       {"prob": "0"}])

    @pytest.mark.parametrize("item,field", [
        ({"test": "covariance", "A": "[0,1)"}, "battery[0].B"),
        ({"test": "covariance", "A": "[0,1)", "B": "1..2"}, "battery[0].B"),
        ({"test": "mixed_moment"}, "battery[0].groupings"),
        ({"test": "mixed_moment", "groupings": [["[0,1)", "x"]]},
         "battery[0].groupings"),
        ({"test": "cesaro"}, "battery[0].windows"),
        ({"test": "cesaro", "windows": 3}, "battery[0].windows"),
    ])
    def test_required_battery_params_checked_at_load(self, item, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            ExperimentSpec.from_dict(minimal_spec(battery=[item]))

    @pytest.mark.parametrize("test", ["intensity", "dispersion", "variance",
                                      "poisson_gof"])
    @pytest.mark.parametrize("component,message", [
        (2, "integer in [0, 2)"), (-1, "integer in [0, 2)"), ("0", "integer in [0, 2)"),
    ])
    def test_split_component_checked_at_load(self, test, component, message):
        item = {"test": test, "component": component}
        d = minimal_spec(construction="split", params={"probs": ["1/2", "1/2"]},
                         battery=[{"test": "intensity", "component": 0}, item])
        with pytest.raises(ValueError,
                           match=re.escape(f"battery[1].component: ") + ".*"
                           + re.escape(message)):
            ExperimentSpec.from_dict(d)

    def test_component_only_on_split(self):
        with pytest.raises(ValueError, match=re.escape("battery[0].component")):
            ExperimentSpec.from_dict(minimal_spec(
                battery=[{"test": "intensity", "component": 0}]))

    def test_item_window_checked_before_sampling(self, monkeypatch):
        from sushilab import experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        d = minimal_spec(battery=[{"test": "intensity"},
                                  {"test": "intensity", "window": "0..1"}])
        with pytest.raises(ValueError, match=re.escape(
                "battery[1].window: bad interval literal '0..1'")):
            run(ExperimentSpec.from_dict(d))

    @pytest.mark.parametrize("test,construction,params", [
        ("cross_correlation", "poisson", {}),
        ("cross_correlation", "thin", {"kappa": "1"}),
        ("dissociation", "poisson", {}),
        ("round_trip", "split", {"probs": ["1/2", "1/2"]}),
        ("two_sample_vs", "poisson", {}),
        ("variance", "thin", {"kappa": "1"}),
        ("two_sample_vs", "mark", {"mark_probs": ["1/2", "1/2"]}),
    ])
    def test_test_suits_construction_before_sampling(self, monkeypatch, test,
                                                      construction, params):
        from sushilab import cluster, experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        monkeypatch.setattr(cluster, "sample_poisson", no_sampling)
        d = minimal_spec(construction=construction, params=params,
                         battery=[{"test": "intensity"}, {"test": test}])
        with pytest.raises(ValueError, match=re.escape(
                f"battery[1].test: {test} needs the ") + ".*"
                + re.escape(f"construction, not {construction}")):
            run(ExperimentSpec.from_dict(d))

    @pytest.mark.parametrize("construction,params,item,message", [
        ("poisson", {}, {"test": "intensity", "mark": 0},
         "battery[0].mark: only the mark construction has marks"),
        ("split", {"probs": ["1/2", "1/2"]},
         {"test": "intensity", "component": 0, "mark": 0},
         "battery[0].mark: only the mark construction"),
        ("mark", {"mark_probs": ["1/2", "1/2"]}, {"test": "poisson_gof", "mark": 2},
         "battery[0].mark: must be an integer in [0, 2)"),
        ("mark", {"mark_probs": ["1/2", "1/2"]}, {"test": "intensity", "mark": "0"},
         "battery[0].mark: must be an integer in [0, 2)"),
        ("split", {"probs": ["1/2", "1/2"]},
         {"test": "cross_correlation", "pair": [0, 5]}, "battery[0].pair"),
        ("split", {"probs": ["1/2", "1/2"]},
         {"test": "cross_correlation", "pair": "ab"}, "battery[0].pair"),
        ("mark", {"mark_probs": ["1/2", "1/2"]},
         {"test": "cross_correlation", "pair": [0, 1, 1]}, "battery[0].pair"),
        ("split", {"probs": ["1/2", "1/2"]}, {"test": "dissociation", "pair": [2, 0]},
         "battery[0].pair: must be two integers in [0, 2)"),
        ("split", {"probs": ["1/2", "1/2"]},
         {"test": "mixed_moment", "groupings": [["[0,1)"]] * 3},
         "battery[0].groupings: must be 1 to 2 nonempty groups"),
        ("mark", {"mark_probs": ["1/2", "1/2"]},
         {"test": "mixed_moment", "groupings": [["[0,1)"], []]}, "battery[0].groupings"),
        ("split", {"probs": ["1/2", "1/2"]}, {"test": "dissociation", "K": -1},
         "battery[0].K: must be an integer in 0..1024"),
        ("poisson", {}, {"test": "free", "K": 0}, "battery[0].K: must be an integer in 1.."),
        ("poisson", {}, {"test": "free", "K": 2.0}, "battery[0].K"),
        ("poisson", {}, {"test": "cesaro", "windows": ["[2,3)"], "L": 0},
         "battery[0].L: must be an integer in 1.."),
        ("poisson", {}, {"test": "cesaro", "windows": ["[2,3)"], "K": [1]},
         "battery[0].K: must be a list of integers in [0, 1)"),
        ("poisson", {}, {"test": "cesaro", "windows": ["[2,3)"], "K": 0},
         "battery[0].K"),
        ("poisson", {}, {"test": "diagonal_weight", "n": 5},
         "battery[0].n: must be an integer in 1..4"),
        ("poisson", {}, {"test": "diagonal_weight", "depth": 13},
         "battery[0].depth: must be an integer in 0..12"),
        ("poisson", {}, {"test": "diagonal_weight", "depth": "8"}, "battery[0].depth"),
        ("poisson", {}, {"test": "moment_fit", "n": 4},
         "battery[0].n: must be an integer in 2..3"),
    ])
    def test_item_parameters_checked_at_load(self, construction, params, item,
                                             message):
        d = minimal_spec(construction=construction, params=params, battery=[item])
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec.from_dict(d)

    def test_numeric_parameter_checked_before_sampling(self, monkeypatch):
        from sushilab import experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        d = minimal_spec(battery=[{"test": "intensity"},
                                  {"test": "diagonal_weight", "depth": 13}])
        with pytest.raises(ValueError, match=re.escape("battery[1].depth")):
            run(ExperimentSpec.from_dict(d))

    @pytest.mark.parametrize("construction,params,item,message", [
        ("poisson", {}, {"test": "intensity", "window": "[3,5)"},
         "battery[1].window: [3,5) exceeds observed window [0,4)"),
        ("poisson", {}, {"test": "poisson_gof", "window": "[-1,1)",
                         "replicates": 1000}, "battery[1].window: [-1,1)"),
        ("poisson", {}, {"test": "diagonal_weight", "window": "[0,1)+[4,5)"},
         "battery[1].window: [0,1)+[4,5) exceeds"),
        ("poisson", {}, {"test": "covariance", "A": "[0,1)", "B": "[3,9/2)"},
         "battery[1].B: [3,9/2) exceeds observed window [0,4)"),
        ("mark", {"mark_probs": ["1/2", "1/2"]},
         {"test": "mixed_moment", "groupings": [["[0,1)"], ["[1,2)", "[2,5)"]]},
         "battery[1].groupings: [2,5) exceeds"),
        ("poisson", {}, {"test": "cesaro", "windows": ["[0,1)", "[4,5)"]},
         "battery[1].windows: [4,5) exceeds"),
        ("thin", {"kappa": "1/2"}, {"test": "intensity", "window": "[0,4)"},
         "battery[1].window: [0,4) exceeds observed window [1/2,7/2)"),
        ("poisson", {}, {"test": "intensity", "replicates": 5},
         "battery[1].replicates: must be an integer in 100..inf"),
        ("poisson", {}, {"test": "intensity", "replicates": "many"},
         "battery[1].replicates: must be an integer"),
        ("poisson", {}, {"test": "poisson_gof", "replicates": 500},
         "battery[1].replicates: poisson_gof needs at least 1000, not 500"),
        ("poisson", {}, {"test": "poisson_gof"},
         "battery[1].replicates: poisson_gof needs at least 1000, not 400"),
    ])
    def test_item_windows_and_replicates_checked_before_sampling(
            self, monkeypatch, construction, params, item, message):
        from sushilab import experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        d = minimal_spec(construction=construction, params=params,
                         battery=[{"test": "intensity"}, item])
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ExperimentSpec.from_dict(d))

    @pytest.mark.parametrize("transformation,item,message", [
        ("translation",
         {"test": "cesaro", "windows": ["[0,1)", "[0,1)"], "K": [0], "L": 2},
         "battery[1].windows: T^-1 [0,1) = [-1,0) exceeds observed window [0,4)"),
        ("infinite-chacon",
         {"test": "cesaro", "windows": ["[1,2)", "[1,2)"], "K": [0], "L": 8},
         "battery[1].windows: T^-3 undefined at 1"),
    ])
    def test_cesaro_shifted_windows_checked_before_sampling(
            self, monkeypatch, transformation, item, message):
        from sushilab import experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        d = minimal_spec(transformation=transformation,
                         battery=[{"test": "intensity"}, item])
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ExperimentSpec.from_dict(d))

    @pytest.mark.parametrize("overrides,item,message", [
        ({"transformation": "infinite-chacon", "window": "[0,100000)"},
         {"test": "free", "K": 8},
         "window: [0,100000) is not inside the space [0,2612138803/531441) that "
         "infinite-chacon builds in 12 stages, where battery[1].test free"),
        ({"transformation": "chacon3", "window": "[-1,1)", "construction": "split",
          "params": {"probs": ["1/2", "1/2"]}}, {"test": "dissociation"},
         "window: [-1,1) is not inside the space"),
        ({"transformation": "chacon3", "window": "[0,3/2)"}, {"test": "free"},
         "window: [0,3/2) is not inside the space"),
        ({}, {"test": "free", "K": 10**9}, "battery[1].K: must be an integer in 1..1024"),
        ({"construction": "split", "params": {"probs": ["1/2", "1/2"]}},
         {"test": "dissociation", "K": 1025},
         "battery[1].K: must be an integer in 0..1024"),
    ])
    def test_orbit_reach_and_space_checked_before_sampling(
            self, monkeypatch, overrides, item, message):
        from sushilab import experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        d = minimal_spec(battery=[{"test": "intensity"}, item], **overrides)
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ExperimentSpec.from_dict(d))

    def test_orbit_error_mid_run_names_its_item(self):
        # the top level of the stage-12 chacon3 column, inside the space:
        # T^1 resolves at none of its points, so the run fails on the first
        # replicate with a point
        d = minimal_spec(transformation="chacon3", window="[531440/531441,1)",
                         intensity=str(3 * 531441),
                         battery=[{"test": "intensity"}, {"test": "free", "K": 1}])
        with pytest.raises(OrbitError, match=re.escape("battery[1]: T^1 undefined at")):
            run(ExperimentSpec.from_dict(d))

    @pytest.mark.parametrize("transformation,window,construction,law,item,message", [
        ("infinite-chacon", "[0,4)", "sushi", [{"prob": "1", "weights": {"0": "1", "1": "1"}}],
         {"test": "intensity"}, "params.law: T^-1 undefined at 0"),
        ("infinite-chacon", "[1,5)", "id", [{"prob": "1", "weights": {"0": "1", "40": "1"}}],
         {"test": "intensity"}, "params.law: T^-40 undefined at 1"),
        # the ground window resolves, but not every cluster hung from it
        ("infinite-chacon", "[1/3,1)", "sushi",
         [{"prob": "1", "weights": {"-1": "1", "1": "1"}}],
         {"test": "intensity"}, "params.law: T^-1 undefined at 0"),
        # the id route resolves, the sushi route it is compared with does not
        ("infinite-chacon", "[1/3,1)", "id",
         [{"prob": "1/2", "weights": {"1": "1"}}, {"prob": "1/2", "weights": {"-1": "1"}}],
         {"test": "two_sample_vs"}, "battery[1].other: params.law: T^-1 undefined at 0"),
        ("chacon3", "[-1,1)", "sushi", [{"prob": "1", "weights": {"0": "1", "1": "1"}}],
         {"test": "intensity"}, "window: window [-1,1) is outside the machine space"),
        # T^0 hangs no image, but its ground window must lie in T's space
        ("chacon3", "[-1,1)", "id", [{"prob": "1", "weights": {"0": "1"}}],
         {"test": "intensity"}, "window: window [-1,1) is outside the machine space"),
    ])
    def test_non_resolving_cluster_images_refused_before_sampling(
            self, monkeypatch, transformation, window, construction, law, item,
            message):
        from sushilab import cluster, experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        monkeypatch.setattr(cluster, "sample_poisson", no_sampling)
        d = minimal_spec(transformation=transformation, window=window,
                         construction=construction, params={"c": "1/2", "law": law},
                         battery=[{"test": "intensity"}, item])
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ExperimentSpec.from_dict(d))

    @pytest.mark.parametrize("window,item,message", [
        ("[5,9)", {"test": "moment_fit"},
         "battery[1].n: moment_fit's design window [0,1) exceeds observed window [5,9)"),
        ("[0,2)", {"test": "moment_fit", "n": 3},
         "battery[1].n: moment_fit's design window [2,3) exceeds observed window [0,2)"),
    ])
    def test_moment_fit_design_checked_before_sampling(self, monkeypatch, window,
                                                        item, message):
        from sushilab import experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        d = minimal_spec(window=window, battery=[{"test": "intensity"}, item])
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ExperimentSpec.from_dict(d))

    def test_moment_fit_design_inside_the_window_loads(self):
        ExperimentSpec.from_dict(minimal_spec(window="[0,2)",
                                              battery=[{"test": "moment_fit"}]))

    @pytest.mark.parametrize("construction,law", [
        ("sushi", [{"prob": "1", "weights": {"0": "1/2"}}]),
        ("id", [{"prob": "1/2", "weights": {"0": "2"}},
                {"prob": "1/2", "weights": {"0": "1", "1": "3/2"}}]),
    ])
    @pytest.mark.parametrize("item", [{"test": "poisson_gof", "replicates": 1000},
                                      {"test": "dispersion"},
                                      {"test": "two_sample_vs"}])
    def test_integer_count_tests_refused_on_non_integer_laws_before_sampling(
            self, monkeypatch, construction, law, item):
        from sushilab import cluster, experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        monkeypatch.setattr(cluster, "sample_poisson", no_sampling)
        d = minimal_spec(construction=construction, params={"c": "1/2", "law": law},
                         battery=[{"test": "intensity"}, item])
        with pytest.raises(ValueError, match=re.escape(
                f"battery[1].test: {item['test']} needs integer counts, but "
                f"params.law hangs the weight ")):
            run(ExperimentSpec.from_dict(d))

    def test_never_hung_non_integer_weight_keeps_integer_tests(self):
        law = [{"prob": "1", "weights": {"0": "1"}}, {"prob": "0", "weights": {"0": "1/2"}}]
        d = minimal_spec(construction="sushi", params={"c": "1/2", "law": law},
                         battery=[{"test": "dispersion"}], replicates=200)
        assert len(run(ExperimentSpec.from_dict(d)).reports) == 1

    def test_two_sample_other_checked_at_load(self):
        d = minimal_spec(construction="sushi",
                         params={"c": "1/2", "law": [{"prob": "1", "weights": {"0": "1"}}]},
                         battery=[{"test": "two_sample_vs", "other": "poisson"}])
        with pytest.raises(ValueError, match=re.escape(
                "battery[0].other: must be sushi or id")):
            ExperimentSpec.from_dict(d)

    @pytest.mark.parametrize("overrides,message", [
        ({"intensity": None}, "intensity: cannot interpret None"),
        ({"intensity": [1]}, "intensity: cannot interpret [1]"),
        ({"intensity": float("inf")}, "intensity: cannot interpret inf"),
        ({"intensity": True}, "intensity: cannot interpret True"),
        ({"seed": True}, "seed: expected int"),
        ({"params": [1]}, "params: must be a mapping"),
        ({"construction": "thin", "window": "[-1,5)", "params": {"kappa": [1]}},
         "params.kappa: cannot interpret [1]"),
        ({"construction": "split", "params": {"probs": [None, 1]}},
         "params.probs[0]: cannot interpret None"),
        ({"construction": "split", "params": {"probs": "1/2,1/2"}},
         "params.probs: must be a list of rationals"),
        ({"construction": "sushi",
          "params": {"c": {}, "law": [{"prob": "1", "weights": {"0": "1"}}]}},
         "params.c: cannot interpret {}"),
        ({"construction": "sushi", "params": {"law": [{"prob": "1", "weights": [1]}]}},
         "params.law[0]: must be {prob, weights: {k: a_k}}"),
        ({"construction": "sushi", "params": {"law": "pair"}},
         "params.law: must be a list of {prob, weights} entries"),
        ({"transformation": {"preset": "translation", "step": [1]}},
         "transformation.step: cannot interpret [1]"),
        ({"transformation": {"cuts": 3, "spacers": [[0, 1, 0]]}}, "transformation: "),
    ])
    def test_wrongly_typed_spec_values_named(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec.from_dict(minimal_spec(**overrides))

    @pytest.mark.parametrize("construction,params,item,message", [
        ("poisson", {}, {"test": "intensity", "level": "x"},
         "battery[1].level: must be a number in (0, 1)"),
        ("poisson", {}, {"test": "intensity", "level": 1},
         "battery[1].level: must be a number in (0, 1)"),
        ("poisson", {}, {"test": "dispersion", "alternative": "sideways"},
         "battery[1].alternative: must be under, over or two-sided"),
        ("sushi", {"c": "1/2", "law": [{"prob": "1", "weights": {"0": "1"}}]},
         {"test": "round_trip", "K_max": "x"},
         "battery[1].K_max: must be an integer in 0..inf"),
        ("poisson", {}, {"test": "intensity", "target": [1]},
         "battery[1].target: cannot interpret [1]"),
        ("poisson", {}, {"test": "poisson_gof", "replicates": 1000, "mean": [1]},
         "battery[1].mean: cannot interpret [1]"),
        ("poisson", {}, {"test": "poisson_gof", "replicates": 1000, "mean": "mean"},
         "battery[1].mean: Invalid literal for Fraction: 'mean'"),
        ("poisson", {}, {"test": "intensity", "must_pass": "no"},
         "battery[1].must_pass: must be true or false"),
        ("poisson", {}, {"test": "intensity", "raw": 1},
         "battery[1].raw: must be true or false"),
    ])
    def test_item_parameter_values_checked_before_sampling(
            self, monkeypatch, construction, params, item, message):
        from sushilab import cluster, experiment

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the spec was validated")

        monkeypatch.setattr(experiment, "Rng", no_sampling)
        monkeypatch.setattr(cluster, "sample_poisson", no_sampling)
        d = minimal_spec(construction=construction, params=params,
                         battery=[{"test": "intensity"}, item])
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ExperimentSpec.from_dict(d))

    def test_from_json(self):
        spec = ExperimentSpec.from_json(json.dumps(minimal_spec()))
        assert spec.seed == 7

    def test_hash_ignores_key_order(self):
        d = minimal_spec()
        scrambled = dict(reversed(list(d.items())))
        h1 = ExperimentSpec.from_dict(d).spec_hash()
        h2 = ExperimentSpec.from_dict(scrambled).spec_hash()
        assert h1 == h2

    def test_hash_sees_content(self):
        h1 = ExperimentSpec.from_dict(minimal_spec()).spec_hash()
        h2 = ExperimentSpec.from_dict(minimal_spec(seed=8)).spec_hash()
        assert h1 != h2


class TestTransformations:
    def test_translation_with_step(self):
        T = resolve_transformation({"preset": "translation", "step": "1/3"})
        assert isinstance(T, Translation)
        assert T.apply(0) == pytest.approx(1 / 3)

    def test_chacon3(self):
        T = resolve_transformation("chacon3")
        assert isinstance(T, RankOneMachine)

    def test_rank_one_from_arrays(self):
        T = resolve_transformation(
            {"cuts": [3], "spacers": [[0, 1, 0]]})
        assert isinstance(T, RankOneMachine)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            resolve_transformation("rotation")

    def test_block_without_preset_or_cuts(self):
        with pytest.raises(ValueError, match="transformation"):
            resolve_transformation({"step": "1/3"})


class TestRunDeterminism:
    def test_rerun_identical_minus_wall_time(self):
        spec = ExperimentSpec.from_dict(minimal_spec())
        m1 = run(spec)
        m2 = run(spec)
        assert m1.to_dict(with_wall_time=False) == m2.to_dict(with_wall_time=False)

    def test_thread_count_invariance(self):
        d = minimal_spec(battery=[
            {"test": "intensity"},
            {"test": "covariance", "A": "[0,2)", "B": "[1,3)"},
            {"test": "dispersion", "level": 0.001},
        ])
        spec = ExperimentSpec.from_dict(d)
        m1 = run(spec, threads=1)
        m4 = run(spec, threads=4)
        assert m1.to_dict(with_wall_time=False) == m4.to_dict(with_wall_time=False)

    def test_appending_item_preserves_earlier_reports(self):
        base = ExperimentSpec.from_dict(minimal_spec())
        longer = ExperimentSpec.from_dict(minimal_spec(
            battery=[{"test": "intensity"}, {"test": "dispersion"}]))
        r1 = run(base).reports[0]
        r2 = run(longer).reports[0]
        assert r1.to_dict() == r2.to_dict()

    def test_seed_changes_reports(self):
        a = run(ExperimentSpec.from_dict(minimal_spec())).reports[0]
        b = run(ExperimentSpec.from_dict(minimal_spec(seed=8))).reports[0]
        assert a.estimate != b.estimate


class TestExitStatus:
    def test_wrong_target_fails_run(self):
        d = minimal_spec(battery=[{"test": "intensity", "target": "5"}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.exit_status == 1
        assert m.reports[0].decision == "reject"

    def test_expected_rejection_passes_run(self):
        d = minimal_spec(battery=[
            {"test": "intensity", "target": "5", "expect": "reject"}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.exit_status == 0
        assert m.item_outcomes[0]["met"] is True

    def test_informational_failure_keeps_exit_zero(self):
        d = minimal_spec(battery=[
            {"test": "intensity", "target": "5", "must_pass": False}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.exit_status == 0
        assert m.item_outcomes[0]["met"] is False

    def test_unexpected_pass_fails_counterexample_item(self):
        d = minimal_spec(battery=[
            {"test": "intensity", "expect": "reject"}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.exit_status == 1


class TestArtifacts:
    def test_output_layout(self, tmp_path):
        d = minimal_spec(battery=[{"test": "intensity"},
                                  {"test": "dispersion"}])
        spec = ExperimentSpec.from_dict(d)
        run(spec, out_dir=tmp_path, write_raw=True)
        assert (tmp_path / "manifest.json").exists()
        assert len(list((tmp_path / "reports").glob("*.json"))) == 2
        assert (tmp_path / "raw" / "realization.csv").exists()
        raws = list((tmp_path / "raw").glob("*_intensity_*.csv"))
        assert raws, "per-replicate raw CSV missing"

    def test_manifest_rerun_byte_identical_minus_wall_time(self, tmp_path):
        spec = ExperimentSpec.from_dict(minimal_spec())
        run(spec, out_dir=tmp_path / "a")
        run(spec, out_dir=tmp_path / "b")
        da = json.loads((tmp_path / "a" / "manifest.json").read_text())
        db = json.loads((tmp_path / "b" / "manifest.json").read_text())
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
        ra = sorted((tmp_path / "a" / "reports").glob("*.json"))
        rb = sorted((tmp_path / "b" / "reports").glob("*.json"))
        assert [p.read_bytes() for p in ra] == [p.read_bytes() for p in rb]

    def test_report_schema(self, tmp_path):
        spec = ExperimentSpec.from_dict(minimal_spec())
        run(spec, out_dir=tmp_path)
        rep = json.loads(next((tmp_path / "reports").glob("*.json")).read_text())
        assert set(rep) == {"name", "target", "estimate", "stderr",
                            "statistic", "p_value", "decision", "level",
                            "seed", "R"}
        assert rep["seed"] == 7
        assert rep["R"] == 400


class TestConstructionTargets:
    def test_thin_intensity_target(self):
        import math
        d = minimal_spec(construction="thin", window="[-1,9)",
                         params={"kappa": "1"}, replicates=800)
        m = run(ExperimentSpec.from_dict(d))
        rep = m.reports[0]
        assert rep.target == pytest.approx(8 * math.exp(-2))
        assert rep.decision == "pass"

    def test_split_component_gof(self):
        d = minimal_spec(construction="split", window="[0,10)",
                         params={"probs": ["1/2", "1/2"]},
                         replicates=1200,
                         battery=[{"test": "poisson_gof", "component": 0}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.reports[0].decision == "pass"
        assert "component 0" in m.reports[0].name

    def test_split_component_variance(self):
        d = minimal_spec(construction="split", params={"probs": ["1/4", "3/4"]},
                         battery=[{"test": "variance", "component": 1}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.reports[0].target == pytest.approx(3.0)
        assert m.reports[0].decision == "pass"

    def test_mark_intensity(self):
        d = minimal_spec(construction="mark", window="[0,10)",
                         params={"mark_probs": ["1/3", "2/3"]},
                         battery=[{"test": "intensity", "mark": 1}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.reports[0].target == pytest.approx(20 / 3)
        assert m.reports[0].decision == "pass"

    def test_mark_intensity_counts_points(self):
        d = minimal_spec(construction="mark", window="[0,10)",
                         params={"mark_probs": ["1/2", "1/4", "1/4"]},
                         battery=[{"test": "intensity"}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.reports[0].target == pytest.approx(10.0)
        assert m.exit_status == 0

    def test_sushi_unit_intensity(self):
        d = minimal_spec(construction="sushi", window="[0,6)",
                         params={"c": "unit",
                                 "law": [{"prob": "1",
                                          "weights": {"0": "1", "1": "1"}}]},
                         battery=[{"test": "intensity"}])
        m = run(ExperimentSpec.from_dict(d))
        assert m.reports[0].target == pytest.approx(6.0)
        assert m.reports[0].decision == "pass"


class TestPresets:
    def test_listing_contains_required_names(self):
        names = {name for name, _ in list_presets()}
        assert {"translation", "chacon3"} <= names
        assert {"splitting-independence", "thinning-counterexample",
                "sushi-identities", "moment-decomposition",
                "id-identities"} <= names

    def test_battery_presets_all_parse(self):
        for name in BATTERY_PRESETS:
            spec = preset_spec(name)
            assert spec.name == name

    def test_unknown_battery_preset(self):
        with pytest.raises(ValueError, match="unknown battery preset"):
            preset_spec("nonesuch")

    def test_at_least_five_batteries(self):
        assert len(BATTERY_PRESETS) >= 5


_CONSTRUCTION_PARAMS = {
    "poisson": {},
    "split": {"probs": ["1/2", "1/2"]},
    "thin": {"kappa": "1/2"},
    "mark": {"mark_probs": ["1/2", "1/2"]},
    "sushi": {"c": "1/2", "law": [{"prob": "1", "weights": {"0": "1", "1": "1"}}]},
    "id": {"c": "1/2", "law": [{"prob": "1/2", "weights": {"0": "2"}},
                               {"prob": "1/2", "weights": {"0": "1", "1": "1"}}]},
}

_TEST_ITEMS = {
    "poisson_gof": {"replicates": 1000},
    "intensity": {},
    "dispersion": {},
    "covariance": {"A": "[0,1)", "B": "[1/2,2)"},
    "mixed_moment": {"groupings": [["[0,1)"], ["[0,2)", "[1,2)"]]},
    "cross_correlation": {},
    "dissociation": {"K": 2},
    "free": {"K": 2},
    "moment_fit": {},
    "diagonal_weight": {"depth": 4, "window": "[0,2)"},
    "round_trip": {"K_max": 2},
    "two_sample_vs": {},
    "variance": {},
    "cesaro": {"windows": ["[2,3)", "[2,3)"], "L": 2},
}


@pytest.mark.parametrize("construction", sorted(_CONSTRUCTION_PARAMS))
@pytest.mark.parametrize("test", sorted(_TEST_ITEMS))
def test_every_test_runs_or_is_refused_at_load(test, construction):
    # a (test, construction) pair either fails at load, naming the item, or
    # runs to a manifest: none ends in an error partway through a run
    item = {"test": test, **_TEST_ITEMS[test]}
    d = minimal_spec(construction=construction, window="[-1,5)", replicates=100,
                     params=_CONSTRUCTION_PARAMS[construction], battery=[item])
    try:
        spec = ExperimentSpec.from_dict(d)
    except ValueError as exc:
        assert str(exc).startswith("battery[0].test: ")
        return
    manifest = run(spec)
    assert len(manifest.item_outcomes) == 1
