"""Tests for the error hierarchy and small cross-cutting utilities."""

import pytest

from repro import RavenError
from repro.errors import (
    CatalogError,
    CompileError,
    ExecutionError,
    ExpressionError,
    GraphError,
    NotFittedError,
    ParseError,
    PlanError,
    SchemaError,
    UnsupportedOperatorError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("error_class", [
        SchemaError, CatalogError, ParseError, PlanError, ExecutionError,
        ExpressionError, GraphError, UnsupportedOperatorError,
        NotFittedError, CompileError,
    ])
    def test_all_derive_from_raven_error(self, error_class):
        assert issubclass(error_class, RavenError)

    def test_unsupported_operator_is_graph_error(self):
        # The optimizer catches GraphError-family failures to fall back.
        assert issubclass(UnsupportedOperatorError, GraphError)

    def test_parse_error_position_rendering(self):
        error = ParseError("bad token", position=11, text="SELECT a,\n b FROM")
        assert "line 2" in str(error)
        assert error.position == 11

    def test_parse_error_without_position(self):
        assert str(ParseError("oops")) == "oops"

    def test_catching_base_class(self):
        with pytest.raises(RavenError):
            raise CatalogError("nope")


class TestVersionAndExports:
    def test_version_string(self):
        import repro
        assert repro.__version__.count(".") == 2

    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_session_importable_from_top_level(self):
        from repro import RavenSession
        session = RavenSession()
        assert session.catalog.table_names == []

