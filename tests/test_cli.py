"""Command-line experiment runner."""

import importlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_experiments_registered(self):
        p = build_parser()
        args = p.parse_args(["fig7"])
        assert args.experiment == "fig7"

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_model_choices(self):
        args = build_parser().parse_args(["fig8", "--model", "Transformer"])
        assert args.model == "Transformer"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--model", "GPT3"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table1" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "TensorRT" in out and "speedup" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "pre-scale" in out and "BF16" in out

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "gld_transactions" in out

    def test_fig13(self, capsys):
        assert main(["fig13"]) == 0
        out = capsys.readouterr().out
        assert "attention_aware" in out

    def test_fig8_transformer(self, capsys):
        assert main(["fig8", "--model", "Transformer"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "tile" in out and "d=1024" in out

    def test_fig12(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "OTF" in out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "sparsity" in out and "et" in out


class TestAutotuneCommand:
    def test_winner_table_and_crossovers(self, capsys):
        assert main(["autotune"]) == 0
        out = capsys.readouterr().out
        assert "V100S" in out and "A100" in out
        assert "flash takes over at" in out
        assert "0 hits" in out  # cold cache: one miss per probed seqLen

    def test_transformer_never_flash(self, capsys):
        assert main(["autotune", "--model", "Transformer"]) == 0
        out = capsys.readouterr().out
        assert "never" in out and "partial_otf takes over at" in out

    def test_tune_out_round_trips(self, capsys, tmp_path):
        from repro.runtime.autotune import TuneCache

        path = tmp_path / "tune_cache.json"
        assert main(["autotune", "--tune-out", str(path)]) == 0
        assert "cache written" in capsys.readouterr().out
        restored = TuneCache()
        assert restored.load(path) > 0


class TestFigureRegistry:
    def test_parser_names_every_registered_figure(self):
        from repro.cli import FIGURE_CMDS
        from repro.eval.figures import FIGURES

        assert tuple(FIGURES) == FIGURE_CMDS

    def test_cli_prints_the_figures_render(self, capsys):
        from repro.eval.latency import fig08_attention

        assert main(["fig8", "--model", "Transformer"]) == 0
        out = capsys.readouterr().out
        assert out == fig08_attention("Transformer").render() + "\n"

    def test_fig14_bench_scale_runs_the_benchmarks_inputs(
            self, monkeypatch, capsys):
        """``fig14 --scale bench`` trains exactly what the benchmark does,
        so it reproduces the benchmark's result file."""
        import pathlib

        import repro.eval.accuracy_exp as acc

        bench_dir = pathlib.Path(__file__).parents[1] / "benchmarks"
        monkeypatch.syspath_prepend(str(bench_dir))
        bench = importlib.import_module("bench_fig14_transformer_tradeoff")
        calls = []

        class Result:
            def render(self):
                return "fig14"

        def record(ratios, scale):
            calls.append((ratios, scale))
            return Result()

        monkeypatch.setattr(acc, "fig14_transformer", record)
        assert main(["fig14", "--scale", "bench"]) == 0
        assert capsys.readouterr().out == "fig14\n"
        assert calls == [(bench.RATIOS, bench.BENCH_SCALE)]

    def test_serving_path_loads_no_figure_code(self):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['loadgen', '--model', 'small', '--requests', '8',\n"
            "      '--max-len', '64', '--seq-step', '16'])\n"
            "bad = [m for m in ('repro.eval.figures', 'repro.eval.latency',\n"
            "                   'repro.eval.accuracy_exp', 'repro.nn')\n"
            "       if m in sys.modules]\n"
            "sys.exit(f'loaded {bad}' if bad else 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestModelValidation:
    def test_fig8_rejects_distilbert(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig8", "--model", "DistilBERT"])
        assert exc.value.code == 2
        assert "BERT_BASE or Transformer" in capsys.readouterr().err

    def test_table1_rejects_transformer_before_training(self, monkeypatch,
                                                        capsys):
        import repro.eval.accuracy_exp as acc

        def no_training(*args, **kwargs):
            raise AssertionError("table1 trained before validating --model")

        monkeypatch.setattr(acc, "table1", no_training)
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--model", "Transformer", "--scale", "tiny"])
        assert exc.value.code == 2
        assert "BERT_BASE or DistilBERT" in capsys.readouterr().err

    def test_autotune_small_uses_the_small_model(self, capsys):
        assert main(["autotune", "--model", "small"]) == 0
        out = capsys.readouterr().out
        assert "H=4, d_head=16" in out
        assert "BERT_BASE" not in out
