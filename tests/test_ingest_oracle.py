"""The block-wise ingest against the row-by-row ingest it speeds up.

``reference_ingest_csv`` is the earlier ``ingest_csv``, kept as the oracle:
every row through ``csv.reader``, ``date.fromisoformat`` and ``float()``. It
differs from that code in one respect only: cells and lines are stripped of
ASCII whitespace alone, as ``ingest_csv`` now strips them. Every input must
give the same series (equal dates, bit-equal prices) or a ``ValueError`` with
the same message, wherever in the file, and whichever block, the oddity lies.
"""

import csv
import math
import re
import tracemalloc
from datetime import date as Date
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import pipeline
from longmem.pipeline import BLOCK, emit_synth, ingest_csv
from longmem.series import PriceSeries
from longmem.synth import FgnSpec

PAD = " \t\n\r\x0b\x0c"


def reference_iso_date(text):
    if len(text) != 10 or not text.isascii() or text[4] != "-" or text[7] != "-":
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return Date.fromisoformat(text)


def reference_ingest_csv(path, label=None):
    if label is None:
        label = path.stem
    width = 0
    dates = []
    prices = []
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                if not raw.isascii():
                    try:
                        raw.encode()
                    except UnicodeEncodeError as exc:
                        byte = ord(raw[exc.start]) - 0xDC00
                        raise ValueError(f"not UTF-8 (byte 0x{byte:02x} "
                                         f"at column {exc.start + 1})") from None
                stripped = raw.strip(PAD)
                if not stripped or stripped.startswith("#"):
                    continue
                cells = next(csv.reader([raw]))
                if not width:
                    columns = [c.strip(PAD).lower() for c in cells]
                    if "date" not in columns or "price" not in columns:
                        raise ValueError("header must name 'date' and 'price' columns")
                    date_idx, price_idx = columns.index("date"), columns.index("price")
                    width = max(date_idx, price_idx) + 1
                    continue
                if len(cells) < width:
                    raise ValueError(f"expected at least {width} columns")
                try:
                    d = reference_iso_date(cells[date_idx].strip(PAD))
                except ValueError as exc:
                    raise ValueError(f"unparsable date {cells[date_idx]!r}") from exc
                raw_price = cells[price_idx].strip(PAD)
                if raw_price == "":
                    raise ValueError("blank price")
                try:
                    if not raw_price.isascii() or "_" in raw_price:
                        raise ValueError
                    p = float(raw_price)
                except ValueError as exc:
                    raise ValueError(f"unparsable price {raw_price!r}") from exc
                if not math.isfinite(p):
                    raise ValueError(f"non-finite price {raw_price}")
                if p <= 0:
                    raise ValueError(f"non-positive price {raw_price}")
                if dates and d == dates[-1]:
                    raise ValueError(f"duplicate date {d.isoformat()}")
                if dates and d < dates[-1]:
                    raise ValueError(f"dates not increasing ({d.isoformat()} "
                                     f"after {dates[-1].isoformat()})")
            except (ValueError, csv.Error) as exc:
                raise ValueError(f"{path}: row {lineno}: {exc}") from exc
            dates.append(d)
            prices.append(p)
    if not width:
        raise ValueError(f"{path}: no data rows")
    return PriceSeries(label, tuple(dates), prices)


def outcome(ingest, path):
    """The series' dates and price bits, or the error message."""
    try:
        series = ingest(path, "x")
    except ValueError as exc:
        return str(exc)
    return series.dates.tolist(), series.values.tobytes()


def assert_same_as_reference(path):
    got = outcome(ingest_csv, path)
    assert got == outcome(reference_ingest_csv, path)
    return got


@pytest.fixture(scope="module")
def seed_bytes(tmp_path_factory):
    # 2,400 rows of about 30 bytes: the body spans 4 blocks
    path = emit_synth(FgnSpec(h=0.6, n=2400, seed=3), tmp_path_factory.mktemp("seed") / "s.csv")
    data = path.read_bytes()
    assert len(data) > 3 * BLOCK
    return data


def boundary_rows(data):
    """Byte spans of the last row of the first body block and the first row
    of the second, as the block path cuts them."""
    body = data.index(b"date,price\n") + len(b"date,price\n")
    cut = data.rfind(b"\n", body, body + BLOCK) + 1
    last_start = data.rfind(b"\n", 0, cut - 1) + 1
    next_end = data.index(b"\n", cut) + 1
    return (last_start, cut), (cut, next_end)


def edit_row(data, span, row):
    start, end = span
    return data[:start] + row + data[end:]


def cells_of(data, span):
    return data[span[0]:span[1]].rstrip(b"\n").split(b",")


SIDES = pytest.mark.parametrize("side", [0, 1], ids=["last_of_block", "first_of_next"])


class TestBlockPath:
    @staticmethod
    def record_row_parser(monkeypatch):
        """The blocks ``ingest_csv`` hands the row parser, in order."""
        calls, row_parser = [], pipeline._read_rows
        monkeypatch.setattr(pipeline, "_read_rows",
                            lambda block, *state: calls.append(block) or row_parser(block, *state))
        return calls

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_clean_file_sends_the_row_parser_only_the_lines_up_to_the_header(
            self, tmp_path, monkeypatch, newline):
        plain = emit_synth(FgnSpec(h=0.6, n=4999, seed=5), tmp_path / "p.csv")
        path = tmp_path / "s.csv"
        path.write_bytes(plain.read_bytes().replace(b"\n", newline))
        want = outcome(reference_ingest_csv, plain)
        calls = self.record_row_parser(monkeypatch)
        assert len(want[0]) == 5000
        assert outcome(ingest_csv, path) == want
        head = path.read_bytes().split(b"date,price")[0]
        assert calls == [line + newline for line in head.split(newline)[:-1]] \
            + [b"date,price" + newline]

    def test_comment_after_the_header_sends_the_row_parser_only_its_block(
            self, tmp_path, seed_bytes, monkeypatch):
        body = seed_bytes.index(b"date,price\n") + len(b"date,price\n")
        clean, commented = tmp_path / "clean.csv", tmp_path / "commented.csv"
        clean.write_bytes(seed_bytes)
        comment = b"# after the header\n"
        commented.write_bytes(seed_bytes[:body] + comment + seed_bytes[body:])
        block = ingest_csv(clean)
        calls = self.record_row_parser(monkeypatch)
        rows = ingest_csv(commented)
        # the header lines one at a time, then the first body block alone
        cut = commented.read_bytes().rfind(b"\n", 0, body + BLOCK) + 1
        assert calls == [*seed_bytes[:body].splitlines(keepends=True),
                         commented.read_bytes()[body:cut]]
        assert calls[-1].startswith(comment)
        assert rows.dates.dtype == block.dates.dtype == np.dtype("datetime64[D]")
        assert len(rows) == 2401 and np.array_equal(rows.dates, block.dates)
        assert rows.values.tobytes() == block.values.tobytes()

    def test_rows_after_a_lone_carriage_return_header_are_kept(self, tmp_path, seed_bytes):
        # the header and the first rows end in a lone CR, so they share the
        # file's first LF-ended line
        body = seed_bytes.index(b"date,price\n")
        head, rest = seed_bytes[:body], seed_bytes[body:]
        rows = rest.split(b"\n", 4)
        path = tmp_path / "s.csv"
        path.write_bytes(head + b"\r".join(rows[:4]) + b"\n" + rows[4])
        assert b"\r2000-01-03," in path.read_bytes()
        assert len(assert_same_as_reference(path)[0]) == 2401

    @pytest.mark.parametrize("odd", [0, 1], ids=["rows_then_block", "block_then_rows"])
    def test_row_number_and_last_date_carry_between_the_readers(self, tmp_path, seed_bytes, odd):
        # a padded row ends the first block or opens the second, whose first
        # row repeats the first block's last date; a price digit makes room
        # for the pad, so the blocks are cut where they were
        spans = boundary_rows(seed_bytes)
        day = cells_of(seed_bytes, spans[0])[0]
        rows = [cells_of(seed_bytes, span) for span in spans]
        rows[1][0] = day
        rows[odd] = [b" " + rows[odd][0], rows[odd][1][:-1]]
        data = seed_bytes
        for span, cells in zip(spans, rows):
            data = edit_row(data, span, b",".join(cells) + b"\n")
        assert len(data) == len(seed_bytes)
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        row = seed_bytes[:spans[1][0]].count(b"\n") + 1
        assert assert_same_as_reference(path).endswith(
            f"row {row}: duplicate date {day.decode()}")

    def test_a_finite_cell_over_the_field_size_limit_fails_its_row(self, tmp_path, seed_bytes):
        span = boundary_rows(seed_bytes)[1]
        price = b"1." + b"0" * csv.field_size_limit()
        path = tmp_path / "s.csv"
        path.write_bytes(edit_row(seed_bytes, span, cells_of(seed_bytes, span)[0] + b","
                                  + price + b"\n"))
        assert "field larger than field limit" in assert_same_as_reference(path)

    def test_a_lowered_field_size_limit_holds_in_every_block(self, tmp_path, seed_bytes):
        path = tmp_path / "s.csv"
        path.write_bytes(seed_bytes)
        limit = csv.field_size_limit(16)
        try:
            assert "row 7: field larger than field limit (16)" in assert_same_as_reference(path)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("cell", [
        "1", "1.5", "-1", "+1", ".5", "5.", "1e5", "1E5", "1e+5", "1e-5", "nan", "NaN",
        "inf", "-Infinity", "1e400", "1e-400", "0x10", "1d5", "0.1000000000000000055511151231257827",
    ])
    def test_numpy_reads_a_price_cell_as_float_does(self, cell):
        try:
            want = np.float64(float(cell)).tobytes()
        except ValueError:
            with pytest.raises(ValueError):
                np.array([cell], dtype=float)
        else:
            assert np.array([cell], dtype=float).tobytes() == want


class TestSameAsReference:
    def test_seed_file(self, tmp_path, seed_bytes):
        path = tmp_path / "s.csv"
        path.write_bytes(seed_bytes)
        assert len(assert_same_as_reference(path)[0]) == 2401

    @pytest.mark.parametrize("form", ["bom", "crlf", "no_final_newline", "header_only"])
    def test_file_forms(self, tmp_path, seed_bytes, form):
        data = {
            "bom": b"\xef\xbb\xbf" + seed_bytes,
            "crlf": seed_bytes.replace(b"\n", b"\r\n"),
            "no_final_newline": seed_bytes.rstrip(b"\n"),
            "header_only": seed_bytes[:seed_bytes.index(b"date,price\n") + 11],
        }[form]
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        got = assert_same_as_reference(path)
        assert isinstance(got, str) if form == "header_only" else len(got[0]) == 2401

    @SIDES
    @pytest.mark.parametrize("make, accepted", [
        (lambda d, p: [b"\"" + d + b"\"", p], True),            # quoted cell
        (lambda d, p: [d, b" " + p + b"\t"], True),             # padded cells
        (lambda d, p: [d + b" ", p], True),
        (lambda d, p: [d, p, b"7"], True),                      # extra column
        (lambda d, p: [d], False),                              # missing column
        (lambda d, p: [d, b""], False),                         # blank price
        (lambda d, p: [b"\xc2\xa0" + d, p], False),             # NBSP before the date
        (lambda d, p: [d, b"\xe3\x80\x80" + p], False),         # U+3000 before the price
        (lambda d, p: [d, p + b"\xc2\xa0"], False),             # NBSP after the price
        (lambda d, p: [d, p + b"\xff"], False),                 # not UTF-8
        (lambda d, p: [b"0000" + d[4:], p], False),
        (lambda d, p: [d[:4] + d[5:7] + d[8:], p], False),      # 20010103
        (lambda d, p: [d, b"1_000"], False),
        (lambda d, p: [d, b"nan"], False),
        (lambda d, p: [d, b"inf"], False),
        (lambda d, p: [d, b"0"], False),
        (lambda d, p: [d, b"-1"], False),
        (lambda d, p: [d, b"1" * (csv.field_size_limit() + 1)], False),
    ])
    def test_row_forms_at_a_block_boundary(self, tmp_path, seed_bytes, side, make, accepted):
        span = boundary_rows(seed_bytes)[side]
        date_cell, price_cell = cells_of(seed_bytes, span)
        path = tmp_path / "s.csv"
        path.write_bytes(edit_row(seed_bytes, span, b",".join(make(date_cell, price_cell)) + b"\n"))
        got = assert_same_as_reference(path)
        assert isinstance(got, tuple) == accepted, got

    @SIDES
    @pytest.mark.parametrize("line", [b"# mid-file comment\n", b"\n", b"  \r\n"])
    def test_lines_between_rows_at_a_block_boundary(self, tmp_path, seed_bytes, side, line):
        start = boundary_rows(seed_bytes)[side][0]
        path = tmp_path / "s.csv"
        path.write_bytes(seed_bytes[:start] + line + seed_bytes[start:])
        assert len(assert_same_as_reference(path)[0]) == 2401

    @SIDES
    def test_lone_carriage_return_at_a_block_boundary(self, tmp_path, seed_bytes, side):
        end = boundary_rows(seed_bytes)[side][1]
        path = tmp_path / "s.csv"
        path.write_bytes(seed_bytes[:end - 1] + b"\r" + seed_bytes[end:])
        assert len(assert_same_as_reference(path)[0]) == 2401

    def test_lone_carriage_return_before_the_header(self, tmp_path, seed_bytes):
        # "# x\r" is a comment line of its own, so the header is "not a header"
        path = tmp_path / "s.csv"
        path.write_bytes(b"# x\rnot a header\n" + seed_bytes)
        assert "row 2: header must name" in assert_same_as_reference(path)

    def test_row_cell_counts_that_make_up_for_each_other(self, tmp_path):
        # four cells, then two: every date and price lands where a third
        # column's would, but the two-cell row is short
        path = tmp_path / "s.csv"
        path.write_text("vol,date,price\n1,2001-01-02,1.0\n2,2001-01-03,1.5,9\n"
                        "2001-01-04,2.0\n3,2001-01-05,2.5\n")
        assert "row 4: expected at least 3 columns" in assert_same_as_reference(path)

    def test_leap_day_of_a_common_year(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,price\n2001-02-28,1\n2001-02-29,2\n2001-03-01,3\n")
        assert "row 3: unparsable date '2001-02-29'" in assert_same_as_reference(path)

    @SIDES
    @pytest.mark.parametrize("back, cause", [(0, "duplicate date"), (1, "dates not increasing")])
    def test_date_order_within_and_across_blocks(self, tmp_path, seed_bytes, side, back, cause):
        last, first = boundary_rows(seed_bytes)
        before = (seed_bytes.rfind(b"\n", 0, last[0] - 1) + 1, last[0])
        previous, span = (before, last) if side == 0 else (last, first)
        day = Date.fromisoformat(cells_of(seed_bytes, previous)[0].decode()) - timedelta(days=back)
        price = cells_of(seed_bytes, span)[1]
        path = tmp_path / "s.csv"
        path.write_bytes(edit_row(seed_bytes, span, f"{day},".encode() + price + b"\n"))
        assert re.search(f"row \\d+: {cause}", assert_same_as_reference(path))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_bytes(self, tmp_path_factory, seed_bytes, data):
        blob = seed_bytes
        cuts = [s for span in boundary_rows(seed_bytes) for s in span]
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.one_of(
                st.integers(0, len(blob)),
                st.sampled_from(cuts).flatmap(lambda c: st.integers(c - 12, c + 12)),
            ))
            pos = min(max(pos, 0), len(blob))
            op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
            chunk = data.draw(st.binary(min_size=1, max_size=4)
                              | st.sampled_from([b",", b"\n", b"\r", b"\"", b" ", b"#", b"_",
                                                 b"-", b"e", b"\xc2\xa0"]))
            tail = blob[pos:] if op == "insert" else blob[pos + len(chunk):]
            blob = blob[:pos] + (b"" if op == "delete" else chunk) + tail
        path = tmp_path_factory.mktemp("fuzz") / "s.csv"
        path.write_bytes(blob)
        assert_same_as_reference(path)


def traced_peak(ingest, path):
    tracemalloc.start()
    try:
        ingest(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, slack", [(100_000, 0), (4_203, 2**18)])
def test_traced_peak_no_higher_than_reference(tmp_path, n, slack):
    path = emit_synth(FgnSpec(h=0.6, n=n, seed=8), tmp_path / "s.csv")
    assert traced_peak(ingest_csv, path) <= traced_peak(reference_ingest_csv, path) + slack
