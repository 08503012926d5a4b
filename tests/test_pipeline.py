import errno
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from datetime import date, datetime, timedelta
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import longmem
from longmem import pipeline
from longmem.cli import main
from longmem.pipeline import (
    _SETTINGS,
    SYNTH_EPOCH,
    RunConfig,
    config_from_mapping,
    emit_synth,
    ingest_csv,
    load_config_file,
    parse_input_spec,
    run_pipeline,
)
from longmem.rolling import RollingProtocol, window_offsets
from longmem.series import PriceSeries, log_returns
from longmem.synth import FgnSpec, generate_fgn


DEFAULT_NOTE = re.compile(r"\[default: (.*)\]\.?$")


def load_schema(name):
    with resources.files("longmem.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def write_prices(path, rows, header="date,price"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture()
def synth_file(tmp_path):
    return emit_synth(FgnSpec(h=0.6, n=1300, seed=7), tmp_path / "serie.csv")


def window_start(path, index):
    """Start date of the index-th window under the default window 500, step 7."""
    returns = log_returns(ingest_csv(path))
    return returns.dates[window_offsets(len(returns), 500, 7)[index]].item()


class TestIngestCsv:
    def test_two_row_file(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", "2020-01-03,101"])
        ps = ingest_csv(p)
        assert len(ps) == 2
        assert ps.id == "t"
        assert ps.dates[0] == date(2020, 1, 2)

    def test_misordered_rows_name_physical_row(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-03,100", "2020-01-02,101"])
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", "2020-01-02,101"])
        with pytest.raises(ValueError, match="duplicate date"):
            ingest_csv(p)

    def test_unparsable_price_names_row(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", "2020-01-03,abc"])
        with pytest.raises(ValueError, match="row 3.*abc"):
            ingest_csv(p)

    def test_unparsable_date_names_row(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["02/01/2020,100", "2020-01-03,100"])
        with pytest.raises(ValueError, match="row 2"):
            ingest_csv(p)

    @pytest.mark.parametrize("cell", ["20200103", "2020-W01-5"])
    def test_only_yyyy_mm_dd_dates_accepted(self, tmp_path, cell):
        # both name 2020-01-03 to Python 3.11's date.fromisoformat, not to 3.10's
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", f"{cell},101"])
        message = f"{p}: row 3: unparsable date {cell!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_csv(p)

    @pytest.mark.parametrize("cell", ["1_000", "١٢", "１０"])
    def test_only_ascii_decimal_prices_accepted(self, tmp_path, cell):
        # float() reads these as 1000.0, 12.0 (Arabic-Indic) and 10.0 (full-width)
        p = tmp_path / "t.csv"
        p.write_bytes(f"date,price\n2020-01-02,100\n2020-01-03,{cell}\n".encode())
        message = f"{p}: row 3: unparsable price {cell!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_csv(p)

    @pytest.mark.parametrize("row, kind, cell", [
        ("2020-01-03,\u30001.0", "price", "\u30001.0"),
        ("2020-01-03,1.0\u00a0", "price", "1.0\u00a0"),
        ("\u30002020-01-03,1.0", "date", "\u30002020-01-03"),
    ])
    def test_only_ascii_padding_is_stripped(self, tmp_path, row, kind, cell):
        # str.strip() alone would take NBSP and U+3000 as padding
        p = tmp_path / "t.csv"
        p.write_bytes(f"date,price\n2020-01-02,100\n{row}\n".encode())
        with pytest.raises(ValueError) as err:
            ingest_csv(p)
        assert str(err.value) == f"{p}: row 3: unparsable {kind} {cell!r}"

    def test_blank_price_is_hard_error(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", "2020-01-03,"])
        with pytest.raises(ValueError, match="blank price"):
            ingest_csv(p)

    def test_non_positive_price_rejected(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", "2020-01-03,-5"])
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(p)

    @pytest.mark.parametrize("cell, cause", [
        ("nan", "non-finite price nan"),
        ("inf", "non-finite price inf"),
        ("-1", "non-positive price -1"),
    ])
    def test_bad_price_states_its_cause(self, tmp_path, cell, cause):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", f"2020-01-03,{cell}"])
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: row 3: {cause}')}$"):
            ingest_csv(p)

    def test_header_must_name_date_and_price(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100"], header="day,close")
        with pytest.raises(ValueError, match="'date' and 'price'"):
            ingest_csv(p)

    def test_comment_lines_and_extra_columns(self, tmp_path):
        content = (
            "# a comment\n"
            "price,date,volume\n"
            "100,2020-01-02,55\n"
            "# interleaved comment\n"
            "101,2020-01-03,66\n"
        )
        p = tmp_path / "t.csv"
        p.write_text(content)
        ps = ingest_csv(p, label="lbl")
        assert ps.id == "lbl"
        assert ps.values.tolist() == [100.0, 101.0]

    def test_label_defaults_to_stem(self, tmp_path):
        p = write_prices(tmp_path / "oe_bond.csv", ["2020-01-02,1", "2020-01-03,2"])
        assert ingest_csv(p).id == "oe_bond"

    def test_utf8_bom_copy_ingests_same_series(self, tmp_path):
        plain = write_prices(tmp_path / "t.csv", ["2020-01-02,100", "2020-01-03,101"])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = ingest_csv(bom, "t"), ingest_csv(plain)
        assert got.id == want.id and np.array_equal(got.dates, want.dates)
        assert got.values.tolist() == want.values.tolist()

    def test_non_utf8_byte_names_file_and_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,price\n2020-01-02,100\n2020-01-03,101\n\xff\xfe,1\n")
        with pytest.raises(ValueError) as err:
            ingest_csv(p)
        assert str(err.value) == f"{p}: row 4: not UTF-8 (byte 0xff at column 1)"

    def test_oversized_cell_names_file_and_row(self, tmp_path):
        p = write_prices(tmp_path / "t.csv", ["2020-01-02,100", "2020-01-03," + "1" * 200_000])
        with pytest.raises(ValueError) as err:
            ingest_csv(p)
        assert str(err.value).startswith(f"{p}: row 3: field larger than field limit")

    FUZZ_SEED = (b"# comment\ndate,price\n2020-01-02,100.5\n"
                 b"2020-01-03,101\n2020-01-06,99.25\n")

    @given(edits=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                  st.integers(min_value=0, max_value=len(FUZZ_SEED)),
                  st.binary(min_size=1, max_size=4)),
        min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_mutated_bytes_give_series_or_named_value_error(self, tmp_path_factory, edits):
        data = self.FUZZ_SEED
        for op, pos, chunk in edits:
            pos %= len(data) + 1
            tail = data[pos:] if op == "insert" else data[pos + len(chunk):]
            data = data[:pos] + (b"" if op == "delete" else chunk) + tail
        path = tmp_path_factory.mktemp("fuzz") / "fuzzed.csv"
        path.write_bytes(data)
        try:
            series = ingest_csv(path, "fuzzlabel")
        except ValueError as exc:
            assert str(path) in str(exc) or "fuzzlabel" in str(exc), str(exc)
        else:
            assert isinstance(series, PriceSeries)


class TestEmitSynth:
    def test_row_count_is_n_plus_one(self, tmp_path):
        path = emit_synth(FgnSpec(h=0.5, n=100, seed=1), tmp_path / "s.csv")
        rows = [
            line for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(rows) == 102  # header + 101 prices
        assert rows[0] == "date,price"

    def test_reemission_is_byte_identical(self, tmp_path):
        spec = FgnSpec(h=0.5, n=100, seed=1)
        p1 = emit_synth(spec, tmp_path / "a.csv")
        p2 = emit_synth(spec, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_records_spec(self, tmp_path):
        path = emit_synth(FgnSpec(h=0.62, n=50, seed=123), tmp_path / "s.csv")
        head = path.read_text()
        assert "h=0.62" in head and "seed=123" in head

    def test_writes_the_golden_input_unchanged(self, tmp_path):
        # tests/golden/inputs/synth.csv is `longmem synth --h 0.6 --n 1200 --seed 11`
        path = emit_synth(FgnSpec(h=0.6, n=1200, seed=11), tmp_path / "s.csv")
        golden = Path(__file__).parent / "golden" / "inputs" / "synth.csv"
        assert path.read_bytes() == golden.read_bytes()

    def test_dates_match_a_day_by_day_calendar_past_2100(self, tmp_path):
        # 2100 is not a leap year; the reference builds each line from a timedelta
        spec = FgnSpec(h=0.55, n=50_000, seed=21)
        path = emit_synth(spec, tmp_path / "s.csv")
        prices = np.exp(np.concatenate([[0.0], np.cumsum(generate_fgn(spec) / 100.0)]))
        rows = [f"{(SYNTH_EPOCH + timedelta(days=i)).isoformat()},{float(p)!r}"
                for i, p in enumerate(prices)]
        text = path.read_text()
        lines = text.splitlines()
        assert lines[lines.index("date,price") + 1 :] == rows
        assert "2100-02-28," in text and "2100-02-29," not in text
        assert rows[-1].startswith("2136-11-")

    def test_round_trip_recovers_noise(self, tmp_path):
        spec = FgnSpec(h=0.7, n=400, seed=9)
        path = emit_synth(spec, tmp_path / "s.csv")
        recovered = log_returns(ingest_csv(path)).values
        expected = generate_fgn(spec)
        assert np.all(np.abs(recovered - expected) <= 1e-9)


class TestRunConfig:
    def test_defaults_replay_reference_protocol(self):
        cfg = RunConfig()
        assert cfg.window == 500
        assert cfg.step == 7
        assert cfg.ladder.sizes == (4, 8, 16, 32, 64, 128)
        assert cfg.detrend_order == 1
        assert cfg.estimator == "dfa"
        assert cfg.split_date == date(2008, 9, 15)
        assert cfg.confidence_level == 0.999
        assert cfg.formats == {"json", "csv"}

    def test_protocol_validated_at_load_time(self):
        with pytest.raises(ValueError, match="twice the largest"):
            RunConfig(window=100)

    @pytest.mark.parametrize("value", ["20080915", "2008-W38-1"])
    def test_split_date_takes_only_yyyy_mm_dd(self, value):
        # the date form the price files take, on every supported Python
        with pytest.raises(ValueError, match=f"expected YYYY-MM-DD, got '{value}'"):
            config_from_mapping({"split_date": value})

    def test_bad_formats_rejected(self):
        with pytest.raises(ValueError, match="unknown formats"):
            RunConfig(formats=frozenset({"yaml"}))

    def test_config_file_round_trip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# pipeline settings\n"
            "window = 1024\n"
            "step = 11\n"
            "estimator = rs\n"
            "ladder = 8,16,32,64,128,256,512\n"
            "split_date = 2010-05-01\n"
            "confidence_level = 0.99\n"
            "formats = json\n"
        )
        cfg = config_from_mapping(load_config_file(cfg_file))
        assert cfg.window == 1024
        assert cfg.step == 11
        assert cfg.estimator == "rs"
        assert cfg.ladder.sizes == (8, 16, 32, 64, 128, 256, 512)
        assert cfg.split_date == date(2010, 5, 1)
        assert cfg.formats == {"json"}

    def test_config_form_feed_ends_no_line(self, tmp_path):
        # a page break after a value is trailing space on its line, not a line end
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text("window = 500\f\nwindow = 1024\n")
        with pytest.raises(ValueError, match=r"f\.cfg:2: duplicate key 'window' "
                                                r"\(first on line 1\)$"):
            load_config_file(cfg_file)

    def test_config_next_line_character_ends_no_line(self, tmp_path):
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text("window = 500\u0085step = 3\r\nsplit_by = end\rformats = csv",
                            encoding="utf-8", newline="")
        assert load_config_file(cfg_file) == {
            "window": "500\u0085step = 3", "split_by": "end", "formats": "csv"}

    @pytest.mark.parametrize("key", [
        key for key, (_, _, text) in _SETTINGS.items() if text and DEFAULT_NOTE.search(text)
    ])
    def test_flag_help_default_is_the_run_config_default(self, key):
        default = DEFAULT_NOTE.search(_SETTINGS[key][2]).group(1)
        assert getattr(config_from_mapping({key: default}), key) == getattr(RunConfig(), key)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_mapping({"windw": "12"})

    def test_input_spec_with_label(self):
        path, label = parse_input_spec("data/x.csv:OE")
        assert path == Path("data/x.csv")
        assert label == "OE"

    def test_input_spec_only_splits(self):
        # RunConfig checks the label, whichever way it came
        assert parse_input_spec("x.csv:") == (Path("x.csv"), "")
        assert parse_input_spec("a\nb.csv") == (Path("a\nb.csv"), "a\nb")

    @pytest.mark.parametrize("label, message", [
        ("", "empty label in input spec '{}:'"),
        ("a\nb", "bad label 'a\\nb': it holds a control character"),
        ("../x", "bad label '../x': it holds a path separator"),
    ])
    def test_bad_label_raises_before_any_file_is_written(self, tmp_path, synth_file, label,
                                                         message):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(synth_file))}$"):
            run_pipeline(RunConfig(inputs=[(synth_file, label)], output_dir=tmp_path / "out"))
        assert list(tmp_path.iterdir()) == [synth_file]


class TestRunPipeline:
    def run_on(self, tmp_path, files, **kwargs):
        cfg = RunConfig(
            inputs=tuple((f, f.stem) for f in files),
            output_dir=tmp_path / "out",
            split_date=kwargs.pop("split_date", date(2001, 12, 1)),
            **kwargs,
        )
        return cfg, run_pipeline(cfg, log=io.StringIO())

    @pytest.mark.parametrize("setting, value, error", [
        ("step", np.int64(7), None),
        ("window", np.int32(500), None),
        ("step", 7.0, "step must be an integer"),
        ("split_date", np.datetime64("2001-12-01"), "split_date must be a datetime.date"),
        ("split_date", "2001-12-01", "split_date must be a datetime.date"),
        ("split_date", datetime(2001, 12, 1), "split_date must be a datetime.date"),
        ("confidence_level", np.float32(0.99), None),
        ("confidence_level", "0.99", "confidence_level must be a real number"),
    ])
    def test_settings_of_another_type_fail_at_construction(self, tmp_path, synth_file,
                                                           setting, value, error):
        # at construction, not after every window has been computed
        if error is None:
            cfg, status = self.run_on(tmp_path, [synth_file], **{setting: value})
            stats = json.loads((cfg.output_dir / "serie_stats.json").read_text())
            report = json.loads((cfg.output_dir / "serie_report.json").read_text())
            written = stats["protocol"].get(setting, report["tests"].get(setting))
            assert status == 0 and written == value
            return
        with pytest.raises(ValueError, match=f"^{re.escape(f'{error}, got {value!r}')}$"):
            self.run_on(tmp_path, [synth_file], **{setting: value})
        assert not (tmp_path / "out").exists()

    def test_emits_three_files_per_series(self, tmp_path, synth_file):
        cfg, status = self.run_on(tmp_path, [synth_file])
        assert status == 0
        out = cfg.output_dir
        assert (out / "serie_stats.json").exists()
        assert (out / "serie_report.json").exists()
        assert (out / "serie_rolling.csv").exists()

    def test_outputs_validate_against_shipped_schemas(self, tmp_path, synth_file):
        cfg, status = self.run_on(tmp_path, [synth_file])
        stats = json.loads((cfg.output_dir / "serie_stats.json").read_text())
        report = json.loads((cfg.output_dir / "serie_report.json").read_text())
        jsonschema.validate(stats, load_schema("stats.schema.json"))
        jsonschema.validate(report, load_schema("report.schema.json"))
        assert stats["window_count"] == (1300 - 500) // 7 + 1
        assert report["tests"]["bounds"]["whole"]["n"] == stats["window_count"]

    def test_rolling_csv_layout(self, tmp_path, synth_file):
        cfg, _ = self.run_on(tmp_path, [synth_file])
        lines = (cfg.output_dir / "serie_rolling.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("window_count_rule" in c for c in comments)
        assert any("530" in c and "529" in c for c in comments)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "window_start_date,window_end_date,h,r_squared"
        assert len(lines) - header_idx - 1 == (1300 - 500) // 7 + 1

    def test_determinism_byte_identical(self, tmp_path, synth_file):
        cfg1, _ = self.run_on(tmp_path / "run1", [synth_file])
        cfg2, _ = self.run_on(tmp_path / "run2", [synth_file])
        for name in ("serie_stats.json", "serie_report.json", "serie_rolling.csv"):
            assert (cfg1.output_dir / name).read_bytes() == (
                cfg2.output_dir / name
            ).read_bytes()

    def test_identical_inputs_identical_reports_apart_from_label(
        self, tmp_path, synth_file
    ):
        alpha = synth_file.with_name("alpha.csv")
        twin = synth_file.with_name("twin.csv")
        alpha.write_bytes(synth_file.read_bytes())
        twin.write_bytes(synth_file.read_bytes())
        cfg, status = self.run_on(tmp_path, [alpha, twin])
        assert status == 0
        a = (cfg.output_dir / "alpha_rolling.csv").read_text()
        b = (cfg.output_dir / "twin_rolling.csv").read_text()
        assert a.replace("alpha", "twin") == b

    def test_failed_series_yields_exit_2_but_processes_rest(
        self, tmp_path, synth_file
    ):
        bad = tmp_path / "bad.csv"
        write_prices(bad, ["2020-01-03,100", "2020-01-02,101"])
        cfg, status = self.run_on(tmp_path, [bad, synth_file])
        assert status == 2
        assert (cfg.output_dir / "serie_stats.json").exists()
        assert not (cfg.output_dir / "bad_stats.json").exists()

    def test_fewer_than_four_windows_names_count_and_length(self, tmp_path):
        # 520 returns at window 500, step 7 give 3 windows; 4 need 521 returns
        short = emit_synth(FgnSpec(h=0.5, n=520, seed=3), tmp_path / "short.csv")
        cfg = RunConfig(inputs=((short, "short"),), output_dir=tmp_path / "out")
        log = io.StringIO()
        assert run_pipeline(cfg, log=log) == 2
        assert log.getvalue() == (
            "error: short: 3 rolling windows, fewer than the 4 needed: window 500 "
            "at step 7 needs at least 521 returns, the series has 520\n"
        )
        assert list(cfg.output_dir.iterdir()) == []

    def test_unwritable_output_dir_aborts(self, tmp_path, synth_file):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        cfg = RunConfig(
            inputs=((synth_file, "serie"),),
            output_dir=blocker,
            split_date=date(2001, 12, 1),
        )
        with pytest.raises(ValueError, match="not writable"):
            run_pipeline(cfg, log=io.StringIO())

    def test_no_inputs_rejected_before_out_dir_touch(self, tmp_path):
        cfg = RunConfig(output_dir=tmp_path / "never")
        with pytest.raises(ValueError, match="no input"):
            run_pipeline(cfg)
        assert not (tmp_path / "never").exists()

    def test_empty_side_skips_battery_with_note(self, tmp_path, synth_file):
        cfg, status = self.run_on(tmp_path, [synth_file], split_date=date(1990, 1, 1))
        assert status == 0
        report = json.loads((cfg.output_dir / "serie_report.json").read_text())
        jsonschema.validate(report, load_schema("report.schema.json"))
        assert report["tests"] is None
        assert "empty" in report["note"]

    @pytest.mark.parametrize("index, side", [(1, "before"), (-1, "after")])
    def test_one_window_side_skips_battery_with_note(
        self, tmp_path, synth_file, index, side
    ):
        split = window_start(synth_file, index)
        cfg, status = self.run_on(tmp_path, [synth_file], split_date=split)
        assert status == 0
        report = json.loads((cfg.output_dir / "serie_report.json").read_text())
        jsonschema.validate(report, load_schema("report.schema.json"))
        assert report["tests"] is None
        assert report["counts"][side] == 1
        assert f"'{side}' subsample with only 1 window" in report["note"]
        assert (cfg.output_dir / "serie_rolling.csv").exists()

    def test_persistent_fgn_round_trip_recovers_h(self, tmp_path):
        # generator-as-oracle: an H=0.7 noise file pushed through the whole
        # pipeline reports a rolling mean well inside (0.6, 0.8)
        src = emit_synth(FgnSpec(h=0.7, n=1300, seed=31), tmp_path / "pers.csv")
        cfg, status = self.run_on(tmp_path, [src])
        assert status == 0
        stats = json.loads((cfg.output_dir / "pers_stats.json").read_text())
        assert 0.6 < stats["hurst"]["mean"] < 0.8

    def test_observation_count_convention(self, tmp_path):
        # a 4204-row price file carries 4203 returns
        src = emit_synth(FgnSpec(h=0.5, n=4203, seed=13), tmp_path / "count.csv")
        prices = ingest_csv(src)
        assert len(prices) == 4204
        assert len(log_returns(prices)) == 4203


class TestOutputFiles:
    """Outputs get the mode a plain open() gives, and a series' files are
    written as one set."""

    def first_run(self, tmp_path):
        synth = emit_synth(FgnSpec(h=0.6, n=600, seed=5), tmp_path / "s.csv")
        cfg = RunConfig(inputs=((synth, "s"),), output_dir=tmp_path / "out")
        assert run_pipeline(cfg, log=io.StringIO()) == 0
        return synth, cfg

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_respect_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            synth, cfg = self.first_run(tmp_path)
        finally:
            os.umask(old)
        written = [synth, *cfg.output_dir.iterdir()]
        assert len(written) == 4
        assert {p.stat().st_mode & 0o777 for p in written} == {mode}

    def test_failed_third_write_leaves_previous_set_whole(self, tmp_path, monkeypatch):
        _, cfg = self.first_run(tmp_path)

        def files():
            return {p.name: p.read_bytes() for p in cfg.output_dir.iterdir()}

        old = files()
        assert len(old) == 3

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        real_fdopen, opened = os.fdopen, []

        def fdopen(*args, **kwargs):
            opened.append(real_fdopen(*args, **kwargs))
            return FullDisk(opened[-1]) if len(opened) == 3 else opened[-1]

        rerun = replace(cfg, estimator="rs")
        log = io.StringIO()
        with monkeypatch.context() as m:
            m.setattr(os, "fdopen", fdopen)
            assert run_pipeline(rerun, log=log) == 2
        assert log.getvalue() == "error: s: [Errno 28] No space left on device\n"
        assert files() == old  # no file replaced, no temporary left
        # without the failure, the rerun replaces every file
        assert run_pipeline(rerun, log=io.StringIO()) == 0
        assert all(files()[name] != data for name, data in old.items())


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args))

    @pytest.mark.parametrize("command", ["describe", "hurst", "rolling", "test", "run"])
    def test_run_without_inputs_exits_one_with_usage(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        res = self.invoke(command)
        assert res.exit_code == 1
        assert res.stderr.startswith(f"Usage: main {command} [OPTIONS] [INPUTS]...")
        assert res.stderr.endswith("\nerror: no input files given\n")
        assert list(tmp_path.iterdir()) == []

    def test_full_run_and_flags(self, tmp_path, synth_file):
        out = tmp_path / "cli_out"
        res = self.invoke(
            "run", str(synth_file), "--output-dir", str(out),
            "--split-date", "2001-12-01", "--window", "500", "--step", "14",
        )
        assert res.exit_code == 0, res.output
        stats = json.loads((out / "serie_stats.json").read_text())
        assert stats["protocol"]["step"] == 14

    def test_inputs_via_config_file_only(self, tmp_path, synth_file):
        cfg_file = tmp_path / "cfg"
        out = tmp_path / "from_cfg"
        cfg_file.write_text(
            f"inputs = {synth_file}:labelled\n"
            f"output_dir = {out}\n"
            "split_date = 2001-12-01\n"
        )
        res = self.invoke("run", "--config", str(cfg_file))
        assert res.exit_code == 0, res.output
        assert (out / "labelled_stats.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, synth_file):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("step = 10\nwindow = 600\n")
        out = tmp_path / "o"
        res = self.invoke(
            "run", str(synth_file), "--config", str(cfg_file),
            "--output-dir", str(out), "--split-date", "2001-12-01",
            "--step", "21",
        )
        assert res.exit_code == 0, res.output
        stats = json.loads((out / "serie_stats.json").read_text())
        assert stats["protocol"]["window"] == 600  # from file
        assert stats["protocol"]["step"] == 21  # flag wins

    def test_run_reports_written_files_on_stderr(self, tmp_path, synth_file):
        out = tmp_path / "o"
        res = self.invoke("run", str(synth_file), "--output-dir", str(out))
        assert res.exit_code == 0, res.output
        assert res.stderr.splitlines() == [
            f"wrote {out / name}"
            for name in ("serie_stats.json", "serie_report.json", "serie_rolling.csv")
        ]

    # one bad value for each setting `run` takes, and the start of its error
    BAD_SETTINGS = {
        "estimator": ("wavelet", "error: unknown estimator 'wavelet'"),
        "window": ("abc", "error: bad setting window = 'abc': "),
        "step": ("0", "error: step must be >= 1"),
        "ladder": ("4,8,x", "error: bad setting ladder = '4,8,x': "),
        "detrend_order": ("1.5", "error: bad setting detrend_order = '1.5': "),
        "split_date": ("2008-13-01", "error: bad setting split_date = '2008-13-01': "),
        "split_by": ("middle", "error: split_by must be 'start' or 'end'"),
        "confidence_level": ("1.5", "error: confidence_level must lie in (0.5, 1)"),
        "formats": ("xml", "error: unknown formats: ['xml']"),
        "formats-none": (",", "error: at least one output format is required"),
    }

    # one case per flag of `run`, and further cases named <flag>-<case>
    @pytest.mark.parametrize("key", [
        p.name for p in main.commands["run"].params
        if p.name not in ("inputs", "config_file", "output_dir")
    ] + ["formats-none"])
    def test_bad_setting_exits_one_alike_from_flag_and_config_file(
        self, tmp_path, synth_file, key
    ):
        value, message = self.BAD_SETTINGS[key]
        key = key.partition("-")[0]
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        by_flag = self.invoke("run", str(synth_file), "--" + key.replace("_", "-"), value,
                              "--output-dir", str(out))
        by_file = self.invoke("run", str(synth_file), "--config", str(cfg_file),
                              "--output-dir", str(out))
        assert by_flag.exit_code == by_file.exit_code == 1
        assert by_flag.stderr == by_file.stderr
        assert by_flag.stderr.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "hurst"])
    def test_detrend_order_too_high_for_ladder_exits_one(self, tmp_path, synth_file, command):
        out = tmp_path / "o"
        extra = ["--output-dir", str(out)] if command == "run" else []
        res = self.invoke(command, str(synth_file), "--detrend-order", "3", *extra)
        assert res.exit_code == 1
        assert res.stderr == "error: block size 4 too small for an order-3 fit\n"
        assert not out.exists()
        # R/S has no detrending, and a ladder from 8 leaves room for order 3
        for flags in (["--estimator", "rs"], ["--ladder", "8,16,32"]):
            res = self.invoke(command, str(synth_file), "--detrend-order", "3", *flags, *extra)
            assert res.exit_code == 0, res.output

    # one setting that breaks each rule of the rolling protocol; `hurst` takes
    # no window or step, as the whole series is its one window
    PROTOCOL_RULES = {
        "unknown-estimator": {"estimator": "wavelet"},
        "step-0": {"step": 0},
        "detrend-order-0": {"detrend_order": 0},
        "order-3-default-ladder": {"detrend_order": 3},
        "window-100": {"window": 100},
    }

    @pytest.mark.parametrize("command, rule", [
        (command, rule) for rule, settings in PROTOCOL_RULES.items()
        for command in ("run", "hurst")
        if command == "run" or settings.keys() <= {"estimator", "detrend_order"}])
    def test_protocol_rule_reads_as_the_protocol_raises_it(
        self, tmp_path, synth_file, command, rule
    ):
        settings = self.PROTOCOL_RULES[rule]
        with pytest.raises(ValueError) as raised:
            RollingProtocol(**settings)
        flags = [f for key, value in settings.items()
                 for f in ("--" + key.replace("_", "-"), str(value))]
        out = tmp_path / "o"
        extra = ["--output-dir", str(out)] if command == "run" else []
        res = self.invoke(command, str(synth_file), *flags, *extra)
        assert res.exit_code == 1
        assert res.stderr == f"error: {raised.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "rolling", "hurst"])
    def test_ladder_under_one_octave_exits_one(self, tmp_path, synth_file, command):
        out = tmp_path / "o"
        extra = [] if command == "hurst" else ["--output-dir", str(out)]
        res = self.invoke(command, str(synth_file), "--ladder", "144,147,153", *extra)
        assert res.exit_code == 1
        assert res.stderr == ("error: ladder 144,147,153 spans 153/144 = 1.06, less than "
                              "the one octave a slope needs\n")
        assert not out.exists()

    def test_synth_into_a_missing_directory_names_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = self.invoke("synth", "ow/p.csv", "--h", "0.6", "--n", "100")
        assert res.exit_code == 1
        assert res.stderr == "error: cannot write ow/p.csv: no directory ow\n"
        assert list(tmp_path.iterdir()) == []

    def test_hurst_series_shorter_than_twice_the_ladder_exits_two(self, tmp_path):
        path = write_prices(tmp_path / "short.csv", [
            f"{date(2020, 1, 1) + timedelta(days=i)},{100 + (i * 7) % 5}" for i in range(39)])
        res = self.invoke("hurst", str(path))
        assert res.exit_code == 2
        assert res.stderr == ("error: short: window 38 must be at least twice the "
                              "largest ladder size (128)\n")

    def test_version_from_a_source_checkout(self):
        res = self.invoke("--version")
        assert res.exit_code == 0, res.output
        assert longmem.__version__ in res.output

    def test_estimator_flag_is_case_insensitive(self, synth_file):
        upper = self.invoke("hurst", str(synth_file), "--estimator", "DFA")
        lower = self.invoke("hurst", str(synth_file), "--estimator", "dfa")
        assert upper.exit_code == lower.exit_code == 0, upper.output
        assert upper.output == lower.output

    @pytest.mark.parametrize("command", ["describe", "hurst"])
    @pytest.mark.parametrize("suffixes, message", [
        ([":"], "error: empty label in input spec "),
        ([":x", ":x"], "error: duplicate label 'x': "),
    ])
    def test_bad_labels_exit_one_before_any_work(self, synth_file, command, suffixes, message):
        res = self.invoke(command, *(f"{synth_file}{s}" for s in suffixes))
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith(message)
        assert "Traceback" not in res.output

    def test_oversized_cell_fails_its_series_only(self, tmp_path, synth_file):
        big = write_prices(tmp_path / "big.csv", ["2020-01-02,100", "2020-01-03," + "1" * 200_000])
        out = tmp_path / "o"
        res = self.invoke("run", str(big), str(synth_file), "--output-dir", str(out))
        assert res.exit_code == 2
        assert f"error: big: {big}: row 3: field larger than field limit" in res.stderr
        assert (out / "serie_report.json").exists()
        assert not (out / "big_stats.json").exists()

    def test_duplicate_config_key_exits_one(self, tmp_path, synth_file):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("window = 500\n# a longer window\nwindow = 1024\n")
        out = tmp_path / "o"
        res = self.invoke("run", str(synth_file), "--config", str(cfg_file),
                          "--output-dir", str(out))
        assert res.exit_code == 1
        assert res.stderr == f"error: {cfg_file}:3: duplicate key 'window' (first on line 1)\n"
        assert not out.exists()

    def test_config_line_without_equals_sign_exits_one(self, tmp_path, synth_file):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("window 600\n")
        out = tmp_path / "o"
        res = self.invoke("run", str(synth_file), "--config", str(cfg_file),
                          "--output-dir", str(out))
        assert res.exit_code == 1
        assert res.stderr == f"error: {cfg_file}:1: expected 'key = value'\n"
        assert not out.exists()

    def test_config_file_with_byte_order_mark(self, tmp_path, synth_file):
        # editors on Windows save UTF-8 with a leading byte order mark
        cfg_file = tmp_path / "cfg"
        cfg_file.write_bytes("window = 600\n".encode("utf-8-sig"))
        out = tmp_path / "o"
        res = self.invoke("run", str(synth_file), "--config", str(cfg_file),
                          "--output-dir", str(out), "--split-date", "2001-12-01")
        assert res.exit_code == 0, res.output
        assert json.loads((out / "serie_stats.json").read_text())["protocol"]["window"] == 600

    def test_config_file_is_utf8_whatever_the_locale(self, tmp_path, synth_file):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("# fenêtre élargie\nwindow = 600\n", encoding="utf-8")
        out = tmp_path / "o"
        src = str(Path(longmem.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "longmem.cli", "run", str(synth_file), "--config",
             str(cfg_file), "--output-dir", str(out), "--split-date", "2001-12-01"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "LC_ALL": "POSIX", "PYTHONUTF8": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "serie_stats.json").read_text())["protocol"]["window"] == 600

    @pytest.mark.parametrize("make", [
        lambda p: p.write_bytes(b"window = 5\xff00\n"),
        lambda p: p.mkdir(),
    ], ids=["non-utf8", "directory"])
    def test_unreadable_config_file_exits_one(self, tmp_path, synth_file, make):
        cfg_file = tmp_path / "bad.cfg"
        make(cfg_file)
        out = tmp_path / "o"
        res = self.invoke("run", str(synth_file), "--config", str(cfg_file),
                          "--output-dir", str(out))
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith(f"error: {cfg_file}: ")
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["dfa", "rs"])
    def test_stale_prices_name_the_failing_window(self, tmp_path, synth_file, estimator):
        # prices stop moving after the 700th, as in an illiquid index
        series = ingest_csv(synth_file)
        stale = series.values[:700].tolist() + [series.values[699].tolist()] * (len(series) - 700)
        path = write_prices(tmp_path / "stale.csv",
                            [f"{d},{p!r}" for d, p in zip(series.dates, stale)])
        res = self.invoke("run", str(path), "--estimator", estimator,
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 2
        assert re.fullmatch(
            r"error: stale: window 101 \(\d{4}-\d\d-\d\d to \d{4}-\d\d-\d\d\): "
            r"insufficient scaling points: only 0 of 6 ladder sizes have a positive statistic\n",
            res.stderr)

    @pytest.mark.parametrize("estimator", ["dfa", "rs"])
    def test_step_past_the_int64_range_gives_one_window(self, tmp_path, synth_file, estimator):
        step = 2**63
        res = self.invoke("run", str(synth_file), "--estimator", estimator, "--step", str(step),
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 2
        assert res.stderr == (
            f"error: serie: 1 rolling windows, fewer than the 4 needed: window 500 at step "
            f"{step} needs at least {500 + 3 * step} returns, the series has 1300\n")
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("command", ["run", "rolling", "test"])
    @pytest.mark.parametrize("n", [39, 40, 54, 55])
    def test_length_rule_is_checked_before_any_estimate(self, tmp_path, monkeypatch,
                                                        command, n):
        # window 40 at step 5 needs 40 + 3 * 5 = 55 returns for 4 windows
        monkeypatch.chdir(tmp_path)
        emit_synth(FgnSpec(h=0.6, n=n, seed=5), tmp_path / "short.csv")
        calls = []
        for name in ("describe", "rolling_hurst"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        args = [command, "short.csv", "--window", "40", "--step", "5", "--ladder", "4,8,16"]
        if command != "rolling":  # two windows on each side: starts 0, 5 | 10, 15
            args += ["--split-date", str(SYNTH_EPOCH + timedelta(days=11))]
        if command != "test":
            args += ["--output-dir", "o"]
        res = self.invoke(*args)
        if n == 55:
            assert res.exit_code == 0, res.output
            assert calls
            return
        assert res.exit_code == 2
        assert res.stderr == (
            f"error: short: {max(0, (n - 40) // 5 + 1)} rolling windows, fewer than the 4 "
            f"needed: window 40 at step 5 needs at least 55 returns, the series has {n}\n")
        assert calls == []
        written = {"short.csv"} if command == "test" else {"short.csv", "o"}
        assert {p.name for p in tmp_path.rglob("*")} == written

    GOLDEN = Path(__file__).parent / "golden" / "inputs"

    def run_contract(self, label, *args):
        """``run`` with ``args`` into a fresh directory, checked against the contract
        every run keeps: exit 0, 1 or 2, with no exception or warning escaping; exit
        0 writes the three files, both JSONs passing their schemas; any other exit
        writes nothing. Returns the exit code and the stderr lines."""
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = Path(tmp) / "o"
            res = self.invoke("run", *args, "--output-dir", str(out))
            assert seen == [], (args, [str(w.message) for w in seen])
            assert res.exit_code in (0, 1, 2), (args, res.output)
            assert res.exception is None or isinstance(res.exception, SystemExit), \
                (args, res.exception)
            files = sorted(p.name for p in out.iterdir()) if out.exists() else []
            if res.exit_code == 0:
                assert files == [f"{label}_{kind}" for kind in
                                 ("report.json", "rolling.csv", "stats.json")], args
                for kind in ("stats", "report"):
                    payload = json.loads((out / f"{label}_{kind}.json").read_text())
                    jsonschema.validate(payload, load_schema(f"{kind}.schema.json"))
                return 0, []
        assert files == [], args
        assert res.stderr.splitlines(), args
        return res.exit_code, res.stderr.splitlines()

    # a valid value of each setting, and a mix of malformed, out-of-range and
    # unusual ones
    VALID = {
        "window": st.integers(32, 1100).map(str),
        "step": st.one_of(st.integers(1, 40).map(str), st.just(str(2**63))),
        "ladder": st.sampled_from(["4,8,16", "4,8,16,32,64,128", "5,9,17,33,100", "8,16,32,64"]),
        "detrend-order": st.integers(1, 3).map(str),
        "split-date": st.dates(date(1999, 6, 1), date(2004, 6, 1)).map(str),
        "split-by": st.sampled_from(["start", "end"]),
    }
    ANY = st.one_of(
        st.text(alphabet="0123456789-,_ .x\uff10\uff11\uff15\xa0", max_size=8),
        st.integers(-2**64, 2**64).map(str),
        st.lists(st.integers(-1, 700), max_size=5).map(lambda s: ",".join(map(str, s))),
        st.sampled_from(["2001-13-01", "20010103", "START", "middle", " 4, 8 ,16"]))
    # the words by which an error line names a setting
    NAMES = ("window", "step", "ladder", "block size", "order", "split_date", "split_by")

    @given(flags=st.fixed_dictionaries({}, optional=VALID),
           bad=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(VALID)), ANY)))
    @settings(max_examples=80, deadline=None, database=None)
    @seed(2008)
    def test_any_settings_give_outputs_or_named_errors(self, flags, bad):
        if bad:
            flags[bad[0]] = bad[1]
        args = [f"--{name}={value}" for name, value in flags.items()]
        code, lines = self.run_contract("synth", str(self.GOLDEN / "synth.csv"), *args)
        # a number is read as a price cell is: ASCII digits, no '_'
        if bad and bad[0] in ("window", "step", "ladder", "detrend-order") \
                and ("_" in bad[1] or not bad[1].isascii()):
            assert code == 1, args
        for line in lines:
            assert line.startswith("error: synth: ") or (
                line.startswith("error: ") and any(name in line for name in self.NAMES)), line

    # the causes an error line about a mutated input may give: a row of the
    # file, a window, or a rule of the whole series
    CAUSES = re.compile(
        r"error: m: (.*m\.csv: (row \d+: .+|no data rows)"
        r"|window \d+ \(\d{4}-\d\d-\d\d to \d{4}-\d\d-\d\d\): .+"
        r"|\d+ rolling windows, fewer than the 4 needed: .+"
        r"|price series 'm' needs at least 2 observations"
        r"|prices \S+ then \S+ at \d{4}-\d\d-\d\d: their ratio (under|over)flows the float range)")
    ROW = re.compile(rb"^(\d{4}-\d\d-\d\d,)([^,\r\n]*)", re.M)

    @st.composite
    def mutated_inputs(draw, golden=GOLDEN, row=ROW):
        """A golden input after one to three edits of the kinds a price file
        meets: a flipped byte, a row deleted, duplicated or moved, CRLF line
        ends, a byte order mark, a comment line, truncation, a stale run, or
        every price scaled toward 1e300, 1e-300 or the subnormal range."""
        data = draw(st.sampled_from(sorted(golden.glob("*.csv")))).read_bytes()
        edits = ["flip", "delete", "duplicate", "swap", "crlf", "bom", "comment",
                 "truncate", "stale", "scale"]
        for edit in draw(st.lists(st.sampled_from(edits), min_size=1, max_size=3)):
            lines = data.split(b"\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            prices = [m[2] for m in row.finditer(data)]
            if edit == "flip" and data:
                k = draw(st.integers(0, len(data) - 1))
                data = data[:k] + bytes([data[k] ^ draw(st.integers(1, 255))]) + data[k + 1:]
            elif edit in ("delete", "duplicate", "swap", "comment"):
                if edit == "delete":
                    del lines[i]
                elif edit == "duplicate":
                    lines.insert(i, lines[i])
                elif edit == "swap":
                    lines[i], lines[j] = lines[j], lines[i]
                else:
                    lines.insert(i, b"# a comment")
                data = b"\n".join(lines)
            elif edit == "crlf":
                data = data.replace(b"\n", b"\r\n")
            elif edit == "bom":
                data = b"\xef\xbb\xbf" + data
            elif edit == "truncate":
                data = data[: draw(st.integers(0, len(data)))]
            elif edit == "stale" and prices:
                k = draw(st.integers(0, len(prices) - 1))
                n = draw(st.integers(2, 600))
                prices[k : k + n] = [prices[k]] * len(prices[k : k + n])
            elif edit == "scale" and prices:
                factor = draw(st.sampled_from([1e300, 1e-300, 1e-310, 1e-320, 3e-308]))
                for k, price in enumerate(prices):
                    try:
                        prices[k] = repr(float(price) * factor).encode()
                    except ValueError:
                        pass
            if edit in ("stale", "scale") and prices:
                it = iter(prices)
                data = row.sub(lambda m: m[1] + next(it), data)
        return data

    @given(data=mutated_inputs())
    @settings(max_examples=100, deadline=None, database=None)
    @seed(2009)
    def test_mutated_inputs_give_outputs_or_named_errors(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(data)
            code, lines = self.run_contract("m", str(path), "--split-date", "2000-09-01")
        assert code != 1, lines  # the settings are good; only the series can fail
        for line in lines:
            assert self.CAUSES.fullmatch(line), line

    # a number is read as a price cell is: ASCII digits, no '_'
    @pytest.mark.parametrize("name, value", [
        ("window", "5_00"), ("step", "\uff17"), ("step", " \uff17"), ("detrend-order", "\uff11"),
        ("ladder", "4,\uff18,16"), ("confidence-level", "0.9_99"), ("window", "\xa0500")])
    def test_numbers_take_ascii_digits_and_no_underscore(self, tmp_path, name, value):
        res = self.invoke("run", str(self.GOLDEN / "synth.csv"), f"--{name}", value,
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 1
        assert res.stderr == (f"error: bad setting {name.replace('-', '_')} = {value!r}: "
                              "a number takes ASCII characters only, and no '_'\n")
        assert list(tmp_path.iterdir()) == []

    def test_config_file_numbers_are_read_as_flags_are(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("window = \uff15" "00\n", encoding="utf-8")
        res = self.invoke("run", str(self.GOLDEN / "synth.csv"), "--config", str(cfg_file),
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 1
        assert res.stderr == ("error: bad setting window = '\uff15" "00': a number takes ASCII "
                              "characters only, and no '_'\n")
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_numbers_may_carry_ascii_padding(self, tmp_path):
        res = self.invoke("run", str(self.GOLDEN / "synth.csv"), "--window", " 500",
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 0, res.output
        assert json.loads((tmp_path / "o" / "synth_stats.json").read_text())[
            "protocol"]["window"] == 500

    # a config value sheds only ASCII padding, so it fails as the same flag value does
    @pytest.mark.parametrize("value", ["300\xa0", "\xa0300", "300\u3000"])
    def test_config_file_values_shed_only_ascii_padding(self, tmp_path, value):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"window = {value}\n", encoding="utf-8")
        res = self.invoke("run", str(self.GOLDEN / "synth.csv"), "--config", str(cfg_file),
                          "--output-dir", str(tmp_path / "o"))
        flag = self.invoke("run", str(self.GOLDEN / "synth.csv"), "--window", value,
                           "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == flag.exit_code == 1
        assert res.stderr == flag.stderr == (
            f"error: bad setting window = {value!r}: a number takes ASCII characters only, "
            "and no '_'\n")
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_config_file_lines_keys_and_values_shed_ascii_padding(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("\t window \t=\t 300 \t\n  step= 5\x0c\n", encoding="utf-8")
        res = self.invoke("run", str(self.GOLDEN / "synth.csv"), "--config", str(cfg_file),
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 0, res.output
        protocol = json.loads((tmp_path / "o" / "synth_stats.json").read_text())["protocol"]
        assert (protocol["window"], protocol["step"]) == (300, 5)

    # one valid non-default value for each setting that has a flag
    PADDED_SETTINGS = {
        "estimator": "rs", "window": "300", "step": "5", "ladder": "4,8,16,32",
        "detrend_order": "2", "split_date": "2001-06-01", "split_by": "end",
        "confidence_level": "0.99", "output_dir": "o", "formats": "csv",
    }

    # a flag and a config line go through one parser, so padding reads alike in both
    @pytest.mark.parametrize("key", [key for key, (_, metavar, _) in _SETTINGS.items() if metavar])
    def test_a_padded_flag_reads_as_its_config_line(self, tmp_path, monkeypatch, key):
        value = f" \t{self.PADDED_SETTINGS[key]} \t"
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        runs = {}
        for side, args in (("flag", ["--" + key.replace("_", "-"), value]),
                           ("file", ["--config", str(cfg_file)])):
            cwd = tmp_path / side
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            res = self.invoke("run", str(self.GOLDEN / "synth.csv"), *args)
            files = {p.relative_to(cwd): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
            runs[side] = (res.exit_code, res.stderr, files)
        assert runs["flag"] == runs["file"]
        assert runs["flag"][0] == 0, runs["flag"][1]

    # a list item sheds only ASCII padding, as a price cell does
    @pytest.mark.parametrize("by_file, pad", [(False, "\xa0"), (True, "\u3000")])
    def test_list_items_shed_only_ascii_padding(self, tmp_path, by_file, pad):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"formats = json,{pad}csv\n", encoding="utf-8")
        args = ["--config", str(cfg_file)] if by_file else ["--formats", f"json,{pad}csv"]
        res = self.invoke("run", str(self.GOLDEN / "synth.csv"), *args,
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 1
        assert res.stderr == f"error: unknown formats: {[pad + 'csv']!r}\n"
        assert list(tmp_path.iterdir()) == [cfg_file]

    # synth reads its numbers as run reads its settings
    @pytest.mark.parametrize("name, value", [
        ("h", "0_.6"), ("h", "\uff10.6"), ("n", "1_000"), ("n", "\xa0100"),
        ("sigma", "1_0"), ("seed", "\uff17"), ("seed", "1_1")])
    def test_synth_numbers_take_ascii_digits_and_no_underscore(self, tmp_path, name, value):
        out = tmp_path / "gen.csv"
        flags = {"h": "0.6", "n": "100", name: value}
        res = self.invoke("synth", str(out), *[a for k, v in flags.items() for a in (f"--{k}", v)])
        assert res.exit_code == 1
        assert res.stderr == (f"error: bad setting {name} = {value!r}: "
                              "a number takes ASCII characters only, and no '_'\n")
        assert list(tmp_path.iterdir()) == []

    def test_synth_numbers_may_carry_ascii_padding(self, tmp_path):
        out = tmp_path / "gen.csv"
        res = self.invoke("synth", str(out), "--h", " 0.6", "--n", "100 ", "--sigma", "\t2",
                          "--seed", " 7 ")
        assert res.exit_code == 0, res.output
        assert out.read_text().splitlines()[1] == "# h=0.6 n=100 sigma=2.0 seed=7"

    # click's own usage errors exit 1, as any other unusable configuration
    @pytest.mark.parametrize("args, named", [
        (["run", "x.csv", "--windw", "500"], "'--windw'"),
        (["run", "--config", "missing.cfg", "x.csv"], "'--config'"),
        (["synth", "--h", "0.6", "out.csv"], "'--n'"),
        (["bogus"], "'bogus'")])
    def test_a_bad_command_line_exits_one_with_one_line(self, tmp_path, monkeypatch,
                                                         args, named):
        monkeypatch.chdir(tmp_path)
        res = self.invoke(*args)
        assert res.exit_code == 1
        [line] = res.stderr.splitlines()
        assert line.startswith("error: ") and named in line, line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("estimator", ["dfa", "rs"])
    def test_fixed_rate_prices_have_no_hurst_exponent(self, tmp_path, estimator):
        # log returns of a price compounding at a fixed rate vary only by rounding
        start = date(2000, 1, 3)
        path = write_prices(tmp_path / "fixed.csv", [
            f"{start + timedelta(days=t)},{100.0 * 1.0002**t!r}" for t in range(1300)])
        cause = "insufficient scaling points: only 0 of 6 ladder sizes have a positive statistic"
        res = self.invoke("hurst", str(path), "--estimator", estimator)
        assert res.exit_code == 2
        assert res.stderr == f"error: fixed: {cause}\n"
        res = self.invoke("run", str(path), "--estimator", estimator,
                          "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 2
        assert res.stderr == f"error: fixed: window 1 (2000-01-04 to 2001-05-17): {cause}\n"

    def test_describe_command(self, synth_file):
        res = self.invoke("describe", str(synth_file))
        assert res.exit_code == 0
        assert "std_dev" in res.output

    def test_describe_errors_name_each_series(self, tmp_path):
        tiny = write_prices(
            tmp_path / "tiny.csv", ["2020-01-02,100", "2020-01-03,101", "2020-01-06,99"]
        )
        res = self.invoke("describe", f"{tiny}:a", f"{tiny}:b")
        assert res.exit_code == 2
        assert "error: a: need at least 4 observations to describe, got 2" in res.stderr
        assert "error: b: need at least 4 observations to describe, got 2" in res.stderr

    def test_hurst_command(self, synth_file):
        res = self.invoke("hurst", str(synth_file), "--estimator", "rs")
        assert res.exit_code == 0
        assert "method=rs" in res.output

    def test_hurst_ladder_is_not_held_to_the_rolling_window(self, synth_file):
        # 512 exceeds half the default 500-point window but not half the series
        res = self.invoke("hurst", str(synth_file), "--ladder", "8,16,32,64,128,256,512")
        assert res.exit_code == 0, res.output
        assert "points=7" in res.output

    def test_hurst_bad_ladder_exit_one(self, synth_file):
        res = self.invoke("hurst", str(synth_file), "--ladder", "8,4,16")
        assert res.exit_code == 1
        assert "strictly increasing" in res.output

    def test_rolling_command_writes_csv(self, tmp_path, synth_file):
        out = tmp_path / "r"
        res = self.invoke(
            "rolling", str(synth_file), "--output-dir", str(out),
            "--window", "500", "--step", "50",
        )
        assert res.exit_code == 0, res.output
        assert (out / "serie_rolling.csv").exists()
        assert not (out / "serie_stats.json").exists()

    def test_test_command_prints_battery(self, synth_file):
        res = self.invoke("test", str(synth_file), "--split-date", "2001-12-01")
        assert res.exit_code == 0, res.output
        assert "mann-whitney" in res.output
        assert "inefficient" in res.output

    def test_test_command_matches_run_report(self, tmp_path, synth_file):
        out = tmp_path / "o"
        split = ["--split-date", "2001-12-01"]
        assert self.invoke("run", str(synth_file), "--output-dir", str(out), *split).exit_code == 0
        res = self.invoke("test", str(synth_file), *split)
        assert res.exit_code == 0, res.output
        report = json.loads((out / "serie_report.json").read_text())
        t = report["tests"]
        mw, lev = t["mann_whitney"], t["levene"]
        expected = [
            f"serie: n_before={report['counts']['before']} n_after={report['counts']['after']}",
            f"  mean before/after: {t['mean']['before']:.4f} / {t['mean']['after']:.4f}",
            f"  mann-whitney: u1={mw['u1']:.1f} u2={mw['u2']:.1f} p={mw['p']:.4g} ({mw['method']})",
            f"  levene: w={lev['w']:.4f} p={lev['p']:.4g}",
        ] + [
            f"  {key}: mean={b['mean']:.4f} bounds=({b['lower']:.4f}, {b['upper']:.4f}) "
            f"inefficient={b['inefficient']}"
            for key, b in t["bounds"].items()
        ]
        assert sorted(res.stdout.splitlines()) == sorted(expected)

    def test_test_command_one_window_side_skips_with_note(self, synth_file):
        split = window_start(synth_file, -1).isoformat()
        res = self.invoke("test", str(synth_file), "--split-date", split)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: serie: split at ")
        assert "'after' subsample with only 1 window" in res.stderr
        assert "t bounds" not in res.stderr

    @pytest.mark.parametrize("char", ["\n", "\r", "\t", "\0", "\x7f"])
    def test_control_character_in_label_exits_one_before_any_work(self, tmp_path, synth_file,
                                                                  char):
        label = f"a{char}b"
        res = self.invoke("run", f"{synth_file}:{label}", "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 1
        assert res.stderr == f"error: bad label {label!r}: it holds a control character\n"
        assert list(tmp_path.iterdir()) == [synth_file]

    def test_control_character_in_file_stem_exits_one_before_any_work(self, tmp_path,
                                                                      synth_file):
        path = tmp_path / "a\nb.csv"
        path.write_bytes(synth_file.read_bytes())
        res = self.invoke("run", str(path), "--output-dir", str(tmp_path / "o"))
        assert res.exit_code == 1
        assert res.stderr == "error: bad label 'a\\nb': it holds a control character\n"
        assert sorted(tmp_path.iterdir()) == sorted([synth_file, path])

    def test_duplicate_labels_exit_one_before_any_work(self, tmp_path, synth_file):
        twins = []
        for d in ("d1", "d2"):
            (tmp_path / d).mkdir()
            twins.append(tmp_path / d / "x.csv")
            twins[-1].write_bytes(synth_file.read_bytes())
        out = tmp_path / "o"
        res = self.invoke("run", *map(str, twins), "--output-dir", str(out))
        assert res.exit_code == 1
        assert "duplicate label 'x'" in res.stderr
        assert str(twins[0]) in res.stderr and str(twins[1]) in res.stderr
        assert not out.exists()

    def test_cli_import_leaves_scipy_stats_out(self):
        src = str(Path(longmem.__file__).resolve().parents[1])
        code = "import sys, longmem.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_synth_command(self, tmp_path):
        out = tmp_path / "gen.csv"
        res = self.invoke("synth", str(out), "--h", "0.55", "--n", "64", "--seed", "3")
        assert res.exit_code == 0, res.output
        assert out.exists()

    @pytest.mark.parametrize("flags, cause", [
        (("--h", "1.5", "--n", "100"), "hurst exponent must lie strictly in (0, 1), got 1.5"),
        (("--h", "0.5", "--n", "1"), "need n >= 2"),
        (("--h", "0.5", "--n", "100", "--sigma", "-1"),
         "sigma must be positive and finite, got -1.0"),
        (("--h", "0.5", "--n", "100", "--sigma", "nan"), "sigma must be positive and finite, got nan"),
        # 1e200 squared overflows a Python float; 1.3e154 overflowed the FFT with warnings
        (("--h", "0.6", "--n", "50", "--sigma", "1e200"),
         "sigma 1e+200 too large for n=50: the covariance sum 2 n sigma**2 leaves the float range"),
        (("--h", "0.6", "--n", "50", "--sigma", "1.3e154"),
         "sigma 1.3e+154 too large for n=50: the covariance sum 2 n sigma**2 leaves the float range"),
        (("--h", "0.5", "--n", "100", "--seed", "-1"), "seed must be >= 0, got -1"),
        # a malformed number fails as a malformed run setting does
        (("--h", "abc", "--n", "100"),
         "bad setting h = 'abc': could not convert string to float: 'abc'"),
        (("--h", "0.5", "--n", "1.5"),
         "bad setting n = '1.5': invalid literal for int() with base 10: '1.5'"),
        (("--h", "0.5", "--n", "100", "--seed", "1e2"),
         "bad setting seed = '1e2': invalid literal for int() with base 10: '1e2'"),
    ])
    def test_synth_bad_parameter_exits_one(self, tmp_path, flags, cause):
        out = tmp_path / "gen.csv"
        res = self.invoke("synth", str(out), *flags)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == f"error: {cause}\n"
        assert not out.exists()

    def test_synth_help_shows_each_number_with_its_type_and_default(self):
        res = self.invoke("synth", "--help")
        assert res.exit_code == 0
        assert [line for line in res.stdout.splitlines() if line.startswith("  --")][:4] == [
            "  --h FLOAT       Target Hurst exponent in (0,1).  [required]",
            "  --n INTEGER     Number of noise points (file gets n+1 prices).  [required]",
            "  --sigma FLOAT   Noise scale.  [default: 1.0]",
            "  --seed INTEGER  Generator seed.  [default: 0]",
        ]

    def test_synth_past_the_calendar_exits_one_before_generating(self, tmp_path, monkeypatch):
        # prices are dated daily from 2000-01-03; 2,921,937 days later is 9999-12-31
        def generate(spec):
            raise RuntimeError(f"generating n={spec.n}")
        monkeypatch.setattr("longmem.pipeline.generate_fgn", generate)
        out = tmp_path / "big.csv"
        res = self.invoke("synth", str(out), "--h", "0.6", "--n", "2921938", "--seed", "1")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == (f"error: cannot write {out}: price 2921938 would be dated past "
                              "9999-12-31; n may be at most 2921937\n")
        assert not out.exists()
        res = self.invoke("synth", str(out), "--h", "0.6", "--n", "2921937", "--seed", "1")
        assert str(res.exception) == "generating n=2921937"

    def test_synth_whose_prices_leave_the_float_range_exits_one(self, tmp_path):
        # 1e5 percent noise: the cumulative log price passes exp's range in days
        out = tmp_path / "big.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = self.invoke("synth", str(out), "--h", "0.6", "--n", "5000",
                              "--sigma", "1e5", "--seed", "1")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == (f"error: cannot write {out}: price 3 is 0.0 at sigma 100000.0; "
                              "a smaller sigma keeps every price finite and positive\n")
        assert caught == []
        assert not out.exists()

    def test_invalid_ladder_flag(self, synth_file):
        res = self.invoke("run", str(synth_file), "--ladder", "4,8,x")
        assert res.exit_code != 0

    def test_bad_file_exit_two(self, tmp_path, synth_file):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,price\n2020-01-03,100\n2020-01-02,99\n")
        out = tmp_path / "o2"
        res = self.invoke(
            "run", str(bad), str(synth_file), "--output-dir", str(out),
            "--split-date", "2001-12-01",
        )
        assert res.exit_code == 2
        assert (out / "serie_stats.json").exists()

    @pytest.mark.parametrize("text", ["", "# comments\n\n  \n# and blank lines\n"],
                             ids=["empty", "comments"])
    def test_file_without_rows_exits_two(self, tmp_path, synth_file, text):
        path = tmp_path / "none.csv"
        path.write_text(text)
        out = tmp_path / "o"
        res = self.invoke("run", str(path), str(synth_file), "--output-dir", str(out),
                          "--split-date", "2001-12-01")
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: none: {path}: no data rows\n")
        assert (out / "serie_stats.json").exists()

    def test_unwritable_output_dir_exit_one(self, tmp_path, synth_file):
        blocker = tmp_path / "blocked"
        blocker.write_text("this path is a file, not a directory")
        res = self.invoke("run", str(synth_file), "--output-dir", str(blocker))
        assert res.exit_code == 1
        assert "not writable" in res.output

    def test_robustness_window_preset(self, tmp_path, synth_file):
        # the 1024-point window variant changes nothing but the window
        out = tmp_path / "w1024"
        res = self.invoke(
            "run", str(synth_file), "--window", "1024",
            "--output-dir", str(out), "--split-date", "2001-12-01",
        )
        assert res.exit_code == 0, res.output
        stats = json.loads((out / "serie_stats.json").read_text())
        assert stats["protocol"]["window"] == 1024
        assert stats["protocol"]["step"] == 7
        assert stats["window_count"] == (1300 - 1024) // 7 + 1


@pytest.mark.parametrize("module", ["longmem"] + [
    f"longmem.{m.name}" for m in pkgutil.iter_modules(longmem.__path__)])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    assert module == "longmem.cli" or names
    assert [name for name in names if not hasattr(mod, name)] == []
