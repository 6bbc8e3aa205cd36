import pytest

from patchsim.months import DataError, Horizon


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


_MALFORMED = {
    "2008": "expected YYYY-MM",
    "01-2008": "expected YYYY-MM",
    "2008-13": "month out of range",
    "2008-00": "month out of range",
    "garbage": "expected YYYY-MM",
    "2008/01": "expected YYYY-MM",
    "2010-01-99": "day out of range",
    "2010-02-31": "day out of range",
    "\uff12\uff10\uff11\uff10-01": "expected YYYY-MM",
}


@pytest.mark.parametrize("bad", list(_MALFORMED))
def test_malformed_dates_rejected(horizon, bad):
    with pytest.raises(DataError, match=_MALFORMED[bad]):
        horizon.parse_clamped(bad)


def test_error_messages_are_distinct(horizon):
    assert horizon.parse_clamped("2007-12") == (0, True)
    with pytest.raises(DataError, match="after the horizon end"):
        horizon.parse_clamped("2020-02")
    with pytest.raises(DataError, match="month out of range"):
        horizon.parse_clamped("2020-13")


def test_day_suffix_is_truncated(horizon):
    assert horizon.parse_clamped("2009-12-27") == (23, False)


def test_clamped_parse_flags_pre_epoch_dates(horizon):
    assert horizon.parse_clamped("2005-06") == (0, True)
    assert horizon.parse_clamped("2008-02") == (1, False)
    with pytest.raises(DataError, match="after the horizon end"):
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
