import ast
import math
from dataclasses import fields
from pathlib import Path

import pytest

import tweetxfer
from tweetxfer import net
from tweetxfer.config import RunConfig, load_config
from tweetxfer.errors import DataError


class TestDefaults:
    def test_defaults_are_valid(self):
        cfg = load_config()
        assert cfg == RunConfig()

    def test_network_shape_defaults(self):
        cfg = RunConfig()
        assert cfg.embed_dim == 300
        assert cfg.lstm_units == 100
        assert cfg.filters == 200
        assert cfg.kernel_sizes == (3, 4, 5)
        assert cfg.dense_units == 100
        assert cfg.max_len == 100

    def test_optimizer_defaults(self):
        assert RunConfig().lr == 0.002
        params = net.init_params(2, 0, embed_dim=4, hidden=2, filters=2, dense=2)
        assert net.OptimizerState.for_params(params).lr == 0.002
        assert (net.BETA1, net.BETA2, net.EPSILON, net.SCHEDULE_DECAY) == (
            0.99, 0.999, 1e-8, 0.004
        )


def _cfg_reads() -> set[str]:
    """Every ``cfg.<attr>`` read in the package, outside config.py itself."""
    reads = set()
    for path in sorted(Path(tweetxfer.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "cfg"
            ):
                reads.add(node.attr)
    return reads


class TestEveryKeyIsRead:
    def test_every_field_is_read_somewhere(self):
        unread = {f.name for f in fields(RunConfig)} - _cfg_reads()
        assert not unread, f"config keys no code reads: {sorted(unread)}"

    def test_fixed_nadam_constant_is_not_a_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beta1 = 0.9\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown config key 'beta1'"):
            load_config(str(path))


class TestFileParsing:
    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "seed = 7\n"
            "lr = 0.01   # bigger steps\n"
            "\n"
            "kernel_sizes = 2,3,4\n"
            "dropout = 0.25\n",
            encoding="utf-8",
        )
        cfg = load_config(str(path))
        assert cfg.seed == 7
        assert cfg.lr == 0.01
        assert cfg.kernel_sizes == (2, 3, 4)
        assert cfg.dropout == 0.25
        # untouched keys keep defaults
        assert cfg.filters == 200

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 0.1\n", encoding="utf-8")
        with pytest.raises(DataError, match="learning_rate"):
            load_config(str(path))

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 7\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":1:"):
            load_config(str(path))

    def test_bad_int(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = sieben\n", encoding="utf-8")
        with pytest.raises(DataError, match="integer"):
            load_config(str(path))

    def test_bad_kernel_list(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kernel_sizes = 3;4;5\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_config(str(path))


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed = sieben", "config seed: 'sieben' is not an integer"),
        ("lr = schnell", "config lr: 'schnell' is not a number"),
        ("kernel_sizes = 3;4;5", "config kernel_sizes: '3;4;5' is not a comma-separated int list"),
    ],
    ids=["int", "float", "kernel_list"],
)
def test_value_error_names_path_and_line(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"# comment\nembed_dim = 12\n{line}\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_config(str(path))
    assert str(info.value) == f"{path}:3: {message}"


@pytest.mark.parametrize(
    "key, raw, value, rule",
    [
        ("lr", "0", 0.0, "must be > 0"),
        ("lda_alpha", "inf", math.inf, "must be finite"),
        ("dropout", "1.0", 1.0, "must be in [0, 1)"),
        ("embed_dim", "0", 0, "must be a positive integer"),
        ("seed", "-1", -1, "must be >= 0"),
        ("kernel_sizes", "4,3", (4, 3), "must be distinct ascending positive ints"),
        ("k_users", "1", 1, "must be at least 2"),
    ],
    ids=["positive_float", "finite", "unit_float", "positive_int", "non_negative_int",
         "kernel_list", "k_users"],
)
def test_range_error_names_path_and_line(tmp_path, key, raw, value, rule):
    """A range check on a value from a file names the line that set it;
    the same value from a flag keeps the bare message."""
    path = tmp_path / "run.cfg"
    path.write_text(f"# comment\nembed_dim = 12\n{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_config(str(path))
    assert str(info.value) == f"{path}:3: config {key} {rule}"
    with pytest.raises(DataError) as info:
        load_config(overrides={key: value})
    assert str(info.value) == f"config {key} {rule}"


def test_flag_over_a_bad_file_value_is_checked_as_the_flag(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0\nseed = 3\n", encoding="utf-8")
    assert load_config(str(path), overrides={"lr": 0.5}).lr == 0.5
    with pytest.raises(DataError) as info:
        load_config(str(path), overrides={"seed": -2})
    assert str(info.value) == "config seed must be >= 0"


class TestOverrides:
    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\nlr = 0.01\n", encoding="utf-8")
        cfg = load_config(str(path), overrides={"seed": 9})
        assert cfg.seed == 9
        assert cfg.lr == 0.01

    def test_none_overrides_skipped(self):
        cfg = load_config(overrides={"seed": None})
        assert cfg.seed == 0

    def test_unknown_override_rejected(self):
        with pytest.raises(DataError, match="mystery"):
            load_config(overrides={"mystery": 1})


class TestValidation:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("embed_dim", 0),
            ("lstm_units", -5),
            ("dropout", 1.0),
            ("dropout", -0.1),
            ("leaky_slope", -0.1),
            ("lr", 0.0),
            ("lda_beta", -0.01),
            ("tail", 0),
            ("k_topics", 1),
            ("k_users", 1),
            ("min_user_freq", -1),
            ("kernel_sizes", (3, 3)),
            ("kernel_sizes", (4, 3)),
            ("kernel_sizes", ()),
        ],
    )
    def test_out_of_range_rejected(self, key, value):
        with pytest.raises(DataError):
            load_config(overrides={key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "key", sorted(f.name for f in fields(RunConfig) if f.type == "float")
    )
    def test_non_finite_float_rejected_by_name(self, key, value):
        with pytest.raises(DataError, match=f"^config {key} must be finite$"):
            load_config(overrides={key: value})

    def test_non_finite_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lda_alpha = inf\n", encoding="utf-8")
        with pytest.raises(DataError, match="lda_alpha"):
            load_config(str(path))

    def test_ngram_range_consistency(self):
        with pytest.raises(DataError, match="ngram"):
            load_config(overrides={"ngram_min": 5, "ngram_max": 3})

    def test_in_range_values_accepted(self):
        cfg = load_config(
            overrides={"dropout": 0.0, "leaky_slope": 0.0, "lda_alpha": 0.0}
        )
        assert cfg.dropout == 0.0
