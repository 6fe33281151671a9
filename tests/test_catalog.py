"""Tests for repro.warehouse.catalog."""

from __future__ import annotations

import pytest

from repro.warehouse.catalog import Catalog, Column, Table


def make_table(name="t1", *, created=0, dropped=None):
    return Table(
        name=name,
        n_rows=1000,
        n_partitions=8,
        columns=[
            Column("pk", name, ndv=900, skew=0.0),
            Column("key0", name, ndv=50, skew=0.8),
        ],
        created_day=created,
        dropped_day=dropped,
    )


class TestColumn:
    def test_selectivity_eq_uniform(self):
        col = Column("c", "t", ndv=100, skew=0.0)
        assert col.selectivity_eq(1) == pytest.approx(0.01)

    def test_selectivity_eq_skewed_head_heavier(self):
        col = Column("c", "t", ndv=100, skew=1.0)
        assert col.selectivity_eq(1) > col.selectivity_eq(50)

    def test_selectivity_range_endpoints(self):
        col = Column("c", "t", ndv=100, skew=0.7)
        assert col.selectivity_range(0.0) == 0.0
        assert col.selectivity_range(1.0) == pytest.approx(1.0)

    def test_range_rejects_out_of_bounds(self):
        col = Column("c", "t", ndv=10, skew=0.0)
        with pytest.raises(ValueError):
            col.selectivity_range(1.5)

    def test_invalid_ndv_rejected(self):
        with pytest.raises(ValueError):
            Column("c", "t", ndv=0)

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            Column("c", "t", ndv=10, skew=-0.1)


class TestTable:
    def test_lifespan_open_ended(self):
        table = make_table(created=5)
        assert table.lifespan(horizon_day=35) == 30

    def test_lifespan_dropped(self):
        table = make_table(created=5, dropped=12)
        assert table.lifespan(horizon_day=100) == 7

    def test_is_live_window(self):
        table = make_table(created=5, dropped=12)
        assert not table.is_live(4)
        assert table.is_live(5)
        assert table.is_live(11)
        assert not table.is_live(12)

    def test_column_lookup(self):
        table = make_table()
        assert table.column("pk").ndv == 900
        with pytest.raises(KeyError):
            table.column("missing")

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            Table("t", n_rows=0, n_partitions=1)


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog("p", [make_table("a"), make_table("b")])
        assert catalog.n_tables == 2
        assert catalog.table("a").name == "a"
        assert "a" in catalog and "z" not in catalog

    def test_duplicate_rejected(self):
        catalog = Catalog("p", [make_table("a")])
        with pytest.raises(ValueError):
            catalog.add_table(make_table("a"))

    def test_qualified_column_lookup(self):
        catalog = Catalog("p", [make_table("a")])
        assert catalog.column("a.pk").ndv == 900

    def test_n_columns_totals(self):
        catalog = Catalog("p", [make_table("a"), make_table("b")])
        assert catalog.n_columns == 4

    def test_missing_table_raises(self):
        catalog = Catalog("p")
        with pytest.raises(KeyError):
            catalog.table("nope")
