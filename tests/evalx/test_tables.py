"""Table generators: Table 1 content, Table 2 exactness, rendering."""

import pytest

from repro.evalx.report import render_table
from repro.evalx.tables import PAPER_TABLE2, table1, table2
from repro.schemes import encryption_scheme, register_encryption
from repro.schemes.encryption import AiseScheme, GlobalCounterScheme


class _WideGlobal64(GlobalCounterScheme):
    """global64 with 16-byte stamps: twice its counter region."""

    stamp_bytes = 16


class _WideAise(AiseScheme):
    """AISE with a two-block counter run per page."""

    def counter_region_bytes(self, data_bytes: int) -> int:
        return 2 * super().counter_region_bytes(data_bytes)


class TestTable1:
    def test_four_schemes_in_paper_order(self):
        t = table1()
        names = [row["Encryption Approach"] for row in t.rows]
        assert names == [
            "Global Counter (64-bit)",
            "Counter (Phys Addr)",
            "Counter (Virt Addr)",
            "AISE",
        ]

    def test_key_cells(self):
        t = table1()
        rows = {row["Encryption Approach"]: row for row in t.rows}
        assert rows["AISE"]["IPC Support"] == "Yes"
        assert rows["AISE"]["Latency Hiding"] == "Good"
        assert rows["AISE"]["Other Issues"] == "None"
        assert rows["Counter (Virt Addr)"]["IPC Support"] == "No shared-memory IPC"
        assert "Re-enc on page swap" in rows["Counter (Phys Addr)"]["Other Issues"]
        assert "12.5%" in rows["Global Counter (64-bit)"]["Storage Overhead"]
        assert rows["AISE"]["Storage Overhead"] == "Low (1.6%)"

    @pytest.mark.parametrize("mutant, row, cell", [
        (_WideGlobal64, "Global Counter (64-bit)", "High (64-bit: 25.0%)"),
        (_WideAise, "AISE", "Low (3.1%)"),
    ])
    def test_storage_cells_read_the_descriptor(self, mutant, row, cell):
        """A registered descriptor with another counter region flips its
        own row's storage cell and nothing else."""
        before = table1().rows
        original = encryption_scheme(mutant.key)
        register_encryption(mutant(), replace=True)
        try:
            after = table1().rows
        finally:
            register_encryption(original, replace=True)
        changed = [(b["Encryption Approach"], column, a[column])
                   for b, a in zip(before, after) for column in b
                   if a[column] != b[column]]
        assert changed == [(row, "Storage Overhead", cell)]
        assert table1().rows == before


class TestTable2:
    def test_all_16_cells_match_paper(self):
        t = table2()
        assert len(t.rows) == 8
        for row in t.rows:
            bits = int(row["MAC size"].rstrip("b"))
            paper_mt, paper_pr, paper_ctr, paper_total = PAPER_TABLE2[(bits, row["Scheme"])]
            assert row["MT %"] == pytest.approx(paper_mt, abs=0.01)
            assert row["Page Root %"] == pytest.approx(paper_pr, abs=0.01)
            assert row["Counters %"] == pytest.approx(paper_ctr, abs=0.01)
            assert row["Total %"] == pytest.approx(paper_total, abs=0.01)

    def test_totals_column_echoes_paper(self):
        for row in table2().rows:
            assert row["Total %"] == pytest.approx(row["Paper Total %"], abs=0.01)


class TestRendering:
    def test_render_contains_all_cells(self):
        text = render_table(table1())
        assert "AISE" in text
        assert "Global Counter (64-bit)" in text
        assert text.splitlines()[0].startswith("Table 1")

    def test_render_table2(self):
        text = render_table(table2())
        assert "21.55" in text  # the headline 128-bit AISE+BMT total
        assert "33.51" in text
