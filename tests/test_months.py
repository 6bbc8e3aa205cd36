import pytest

from patchsim.months import (
    AfterHorizonError,
    Horizon,
    MonthFormatError,
)


@pytest.fixture(scope="module")
def horizon():
    return Horizon.from_strings("2008-01", "2020-01")


def test_default_window_spans_144_months(horizon):
    assert horizon.end_index == 144
    assert horizon.n_months == 145


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2008-01", 0),
        ("2009-12", 23),
        ("2020-01", 144),
    ],
)
def test_parse_month_examples(horizon, text, expected):
    assert horizon.parse_clamped(text) == (expected, False)


def test_parse_format_round_trip_over_full_window(horizon):
    for index in range(horizon.end_index + 1):
        assert horizon.parse_clamped(horizon.format(index)) == (index, False)


@pytest.mark.parametrize("bad", ["2008", "01-2008", "2008-13", "2008-00", "garbage", "2008/01"])
def test_malformed_dates_rejected(horizon, bad):
    with pytest.raises(MonthFormatError):
        horizon.parse_clamped(bad)


def test_error_classes_are_distinct(horizon):
    assert horizon.parse_clamped("2007-12") == (0, True)
    with pytest.raises(AfterHorizonError):
        horizon.parse_clamped("2020-02")
    with pytest.raises(MonthFormatError):
        horizon.parse_clamped("2020-13")
    assert not issubclass(MonthFormatError, AfterHorizonError)
    assert not issubclass(AfterHorizonError, MonthFormatError)


def test_day_suffix_is_truncated(horizon):
    assert horizon.parse_clamped("2009-12-27") == (23, False)


def test_clamped_parse_flags_pre_epoch_dates(horizon):
    assert horizon.parse_clamped("2005-06") == (0, True)
    assert horizon.parse_clamped("2008-02") == (1, False)
    with pytest.raises(AfterHorizonError):
        horizon.parse_clamped("2021-01")


def test_format_rejects_out_of_window_index(horizon):
    with pytest.raises(ValueError):
        horizon.format(145)
    with pytest.raises(ValueError):
        horizon.format(-1)


def test_custom_epoch():
    h = Horizon.from_strings("2010-07", "2012-06")
    assert h.parse_clamped("2010-07") == (0, False)
    assert h.parse_clamped("2011-07") == (12, False)
    assert h.end_index == 23
    assert h.format(23) == "2012-06"
