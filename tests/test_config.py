"""The key-value config format and the typed run configuration."""

import numpy as np
import pytest

from semzk.config import (
    RunConfig,
    format_toml,
    parse_scalar,
    parse_toml_text,
)


class TestParser:
    def test_scalar_types(self):
        text = "\n".join([
            "# a comment",
            "count = 12",
            "negative = -3",
            "ratio = 0.5",
            "tiny = 1e-4",
            'name = "soliton bench"',
            "flag = true",
            "other = false",
            'items = ["a:b", "c,d", 3]',
            "trailing = 7  # inline comment",
        ])
        data = parse_toml_text(text)
        assert data["count"] == 12 and isinstance(data["count"], int)
        assert data["negative"] == -3
        assert data["ratio"] == 0.5
        assert data["tiny"] == 1e-4
        assert data["name"] == "soliton bench"
        assert data["flag"] is True and data["other"] is False
        assert data["items"] == ("a:b", "c,d", 3)
        assert data["trailing"] == 7

    def test_hash_inside_string_kept(self):
        data = parse_toml_text('label = "a#b"  # real comment')
        assert data["label"] == "a#b"

    def test_escapes(self):
        data = parse_toml_text(r'path = "a\"b\\c"')
        assert data["path"] == 'a"b\\c'

    def test_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_toml_text("just some words")
        with pytest.raises(ValueError, match="Cannot overwrite a value"):
            parse_toml_text("a = 1\na = 2")
        # a legal TOML key, but no config field
        with pytest.raises(ValueError, match="unknown config key '3bad'"):
            RunConfig.from_mapping(parse_toml_text("3bad = 1"))
        with pytest.raises(ValueError, match="Invalid value"):
            parse_toml_text("a = one")
        with pytest.raises(ValueError, match="Unterminated string"):
            parse_toml_text('a = "oops')

    def test_round_trip(self):
        mapping = {"a": 1, "b": 2.5, "c": "x \"y\" z", "d": True,
                   "e": ("p", "q"), "f": 6.283185307179586,
                   "g": ("a\\", "b"), "h": ("x", ("y", 2)), "i": 1e-05}
        assert parse_toml_text(format_toml(mapping)) == mapping

    def test_writer_escapes_every_control_character(self):
        text = format_toml({"s": "".join(map(chr, range(0x20))) + "\x7f"})
        assert text.endswith("\n") and text[:-1].isprintable()
        assert "\\u0000" in text and "\\u0009" in text and "\\u007F" in text
        assert format_toml({"s": 'a "b" \\c'}) == 's = "a \\"b\\" \\\\c"\n'

    def test_parse_scalar_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scalar("")
        with pytest.raises(ValueError):
            parse_scalar("[1, 2")
        with pytest.raises(ValueError, match="single value"):
            parse_scalar("1\nnx = 8")
        assert parse_scalar('["a", ["b", 2]]') == ("a", ("b", 2))


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.equation == "zk"
        assert cfg.grid().nx == 256

    def test_resolved_text_round_trips(self):
        cfg = RunConfig(equation="sem", T=0.5, norms=("x:inf,y:2",))
        again = RunConfig.from_mapping(parse_toml_text(cfg.resolved_text()))
        assert again == cfg

    @pytest.mark.parametrize("text", [
        'runs/a "#1"', "a\\", "a\\\"b", "x = 1", "a, b", "[0]", "[",
        "line\nnx = 8", "tab\there", "del\x7f", "nul\x00", "crlf\r\n",
        "état ∂u/∂t 解", '"""', "'", "#",
    ])
    def test_any_string_round_trips(self, text):
        cfg = RunConfig(out_dir=text, initial_path=text)
        again = RunConfig.from_mapping(parse_toml_text(cfg.resolved_text()))
        assert again == cfg
        array = {"norms": (text, "x:2")}
        assert parse_toml_text(format_toml(array)) == array

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'colour'"):
            RunConfig.from_mapping({"colour": "red"})

    def test_type_checks(self):
        with pytest.raises(ValueError, match="^nx must be an integer >= 8"):
            RunConfig.from_mapping({"nx": 1.5})
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            RunConfig.from_mapping({"dt": "fast"})
        with pytest.raises(ValueError, match="must be true or false"):
            RunConfig.from_mapping({"heatmaps": 1})
        # integers promote to floats
        assert RunConfig.from_mapping({"T": 2}).T == 2.0

    @pytest.mark.parametrize("text, message", [
        ("nx = {a = 1}", "^nx must be an integer >= 8"),
        ("out_dir = {a = 1}", "'out_dir' must be a string"),
        ("norms = {a = 'x'}", "'norms' must be an array of strings"),
        ("T.a = 1.0", "^T must be nonnegative and finite"),
        ("norms.a = 'x'", "'norms' must be an array of strings"),
        ("[heatmaps]\na = true", "'heatmaps' must be true or false"),
        ("[norms]\na = 'x'", "'norms' must be an array of strings"),
        ("[[norms]]\na = 'x'", "'norms' must be an array of strings"),
        ("[colour]\na = 1", "unknown config key 'colour'"),
        ("T = 1979-05-27", "^T must be nonnegative and finite"),
        ("out_dir = 1979-05-27T07:32:00Z", "'out_dir' must be a string"),
        ("seed = 07:32:00", "^seed must be an integer >= 0"),
        ("norms = 3", "'norms' must be an array of strings"),
        ("norms = ['x:2', 3]", "'norms' must be an array of strings"),
        ("norms = [['x:2']]", "'norms' must be an array of strings"),
    ])
    def test_non_flat_toml_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            RunConfig.from_mapping(parse_toml_text(text))

    def test_invariants(self):
        with pytest.raises(ValueError, match="unknown equation kind"):
            RunConfig(equation="heat")
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            RunConfig(dt=-0.1)
        with pytest.raises(ValueError,
                           match="^perturbation_amplitude must be nonnegative and finite"):
            RunConfig(perturbation_amplitude=-1e-4)
        with pytest.raises(ValueError, match="unknown perturbation shape"):
            RunConfig(perturbation_shape="square")
        with pytest.raises(ValueError, match="^T must be nonnegative and finite"):
            RunConfig(T=-1.0)
        # T = 0 is a legal degenerate run
        assert RunConfig(T=0.0).T == 0.0

    @pytest.mark.parametrize("change, message", [
        ({"norms": 3}, "'norms' must be an array of strings"),
        ({"heatmaps": "no"}, "'heatmaps' must be true or false"),
        ({"seed": True}, "^seed must be an integer >= 0"),
        ({"T": "1"}, "^T must be nonnegative and finite"),
        ({"norms": ("bogus",)}, "bad mixed-norm component 'bogus'"),
        ({"norms": ("x:inf,y:2,T:2",)}, "must omit the time axis"),
        ({"T": 10**400}, "^T must be nonnegative and finite"),
        ({"out_dir": ""}, "out_dir must not be empty"),
        ({"picard_find_window": 1}, "'picard_find_window' must be true or"),
    ])
    def test_every_construction_checks(self, change, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**change)
        with pytest.raises(ValueError, match=message):
            RunConfig().replace(**change)

    def test_coercions(self):
        cfg = RunConfig(norms=["x:2,y:2"], T=1, dt=np.float64(0.5))
        assert cfg.norms == ("x:2,y:2",)
        assert hash(cfg) == hash(RunConfig(norms="x:2,y:2", T=1.0, dt=0.5))
        assert type(cfg.T) is float and type(cfg.dt) is float
        assert "T = 1.0\ndt = 0.5\n" in cfg.resolved_text()

    def test_overrides(self):
        cfg = RunConfig()
        new = cfg.with_overrides(["equation=sem", "T=0.25", "heatmaps=true",
                                  "out_dir=runs/x"])
        assert new.equation == "sem"
        assert new.T == 0.25
        assert new.heatmaps is True
        assert new.out_dir == "runs/x"
        assert cfg.equation == "zk"  # original untouched
        quoted = cfg.with_overrides(['out_dir="runs/y"', "norms=x:inf,y:2",
                                     'norms=["x:2,y:inf", "y:1,x:4"]'])
        assert quoted.out_dir == "runs/y"
        assert quoted.norms == ("x:2,y:inf", "y:1,x:4")

    def test_override_errors(self):
        with pytest.raises(ValueError, match="key=value"):
            RunConfig().with_overrides(["T0.25"])
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig().with_overrides(["tee=1"])
        # override values are TOML: ".5" is a bare string, not a number
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            RunConfig().with_overrides(["dt=.5"])
        # a second key smuggled after a newline is not a value
        with pytest.raises(ValueError, match="^T must be nonnegative and finite"):
            RunConfig().with_overrides(["T=1\nnx = 8"])
        with pytest.raises(ValueError, match="'norms' must be an array"):
            RunConfig().with_overrides(["norms=3"])
        # an integer beyond the float range is not a finite number
        with pytest.raises(ValueError, match="^T must be nonnegative and finite"):
            RunConfig().with_overrides(["T=" + "9" * 400])
