from hypothesis import given, settings
from hypothesis import strategies as st

from rankmobility import names
from rankmobility.names import full_given_name, initials_of, normalize_text, parse_name


def test_normalize_strips_diacritics_case_and_whitespace():
    assert normalize_text("  José  GARCÍA ") == "jose garcia"
    assert normalize_text("Müller") == "muller"
    assert normalize_text("") == ""


def test_normalize_casefolds_beyond_lowercase():
    assert normalize_text("Straße") == "strasse"


# ASCII, with the separators str.split treats as whitespace drawn often.
_ASCII = st.text(st.one_of(st.characters(max_codepoint=127), st.sampled_from(" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")))


@settings(max_examples=300, deadline=None)
@given(value=_ASCII)
def test_ascii_fast_path_equals_the_unicode_path(value):
    assert value.isascii()
    assert normalize_text(value) == names._normalize_unicode(value)


def test_ascii_fast_path_splits_on_file_separators():
    assert normalize_text("Ada\x1cB\x1d\tPARK\x1f") == names._normalize_unicode("Ada\x1cB\x1d\tPARK\x1f") == "ada b park"


def test_parse_natural_order():
    assert parse_name("John R. Smith") == ("john r", "smith")


def test_parse_comma_order():
    assert parse_name("Smith, John R.") == ("john r", "smith")


def test_parse_initials_run_together():
    assert parse_name("J.R. Smith") == ("j r", "smith")


def test_parse_single_token_is_surname():
    assert parse_name("Smith") == ("", "smith")
    assert parse_name("") == ("", "")


def test_initials():
    assert initials_of("john r") == "jr"
    assert initials_of("") == ""


def test_full_given_requires_spelled_out_first_token():
    assert full_given_name("john r") == "john"
    assert full_given_name("j r") is None
    assert full_given_name("") is None
