"""Latency predictor (Algorithm 1) against the ground-truth engine."""

import pytest

from repro.core.predictor import LatencyPredictor, OraclePredictor
from repro.isa.compiler import compile_model
from repro.models.zoo import build_benchmark
from repro.npu.engine import profile_model


class TestLatencyPredictor:
    @pytest.mark.parametrize("model_name,max_err", [
        ("CNN-AN", 0.05),
        ("CNN-GN", 0.12),
        ("CNN-VN", 0.05),
        ("CNN-MN", 0.05),
    ])
    def test_cnn_prediction_error_small(self, config, model_name, max_err):
        graph = build_benchmark(model_name)
        model = compile_model(graph, config, batch=1)
        predicted = LatencyPredictor(config).predict_model(model)
        actual = profile_model(model, config).total_cycles
        assert abs(predicted - actual) / actual < max_err

    def test_rnn_same_length_prediction_tight(self, config):
        graph = build_benchmark("RNN-MT1", input_len=20, output_len=20)
        model = compile_model(graph, config, batch=1)
        predicted = LatencyPredictor(config).predict_model(model)
        actual = profile_model(model, config).total_cycles
        assert abs(predicted - actual) / actual < 0.05

    def test_prediction_cached(self, config):
        predictor = LatencyPredictor(config)
        model = compile_model(build_benchmark("CNN-AN"), config, batch=1)
        assert predictor.predict_model(model) == predictor.predict_model(model)

    def test_equal_layer_counts_do_not_share_an_estimate(self, config):
        # Both unrolls compile to 45 layers; a cache keyed on (name, batch,
        # layer count) once answered the second with the first's estimate.
        predictor = LatencyPredictor(config)
        first = build_benchmark("RNN-MT1", input_len=10, output_len=3)
        second = build_benchmark("RNN-MT1", input_len=5, output_len=6)
        assert len(first) == len(second) == 45
        assert predictor.predict_model(compile_model(first, config)) == 6794480.0
        assert predictor.predict_model(compile_model(second, config)) == 8414560.0

    def test_breakdown_sums_to_total(self, config):
        predictor = LatencyPredictor(config)
        model = compile_model(build_benchmark("CNN-AN"), config, batch=1)
        breakdown = predictor.breakdown(model)
        assert breakdown.total_cycles == pytest.approx(
            sum(breakdown.layer_cycles.values())
        )
        assert breakdown.total_cycles == pytest.approx(
            predictor.predict_model(model)
        )

    def test_breakdown_skips_vector_layers(self, config):
        predictor = LatencyPredictor(config)
        model = compile_model(build_benchmark("CNN-AN"), config, batch=1)
        breakdown = predictor.breakdown(model)
        assert "pool1" not in breakdown.layer_cycles
        assert "conv1" in breakdown.layer_cycles

    def test_batch_increases_prediction(self, config):
        predictor = LatencyPredictor(config)
        graph = build_benchmark("CNN-AN")
        b1 = predictor.predict_model(compile_model(graph, config, batch=1))
        b16 = predictor.predict_model(compile_model(graph, config, batch=16))
        assert b16 > b1


class TestOraclePredictor:
    def test_register_and_predict(self):
        oracle = OraclePredictor()
        oracle.register(3, 1234.5)
        assert oracle.predict_task(3) == 1234.5
        assert 3 in oracle

    def test_missing_task_raises(self):
        with pytest.raises(KeyError):
            OraclePredictor().predict_task(1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OraclePredictor().register(1, -1.0)
