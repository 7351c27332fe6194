import pytest

from ellsw.errors import InputDocumentError, InternalInvariantError, input_errors


def test_input_errors_converts_a_listed_kind_in_each_block():
    guard = input_errors("cannot read x", (OSError, UnicodeDecodeError))
    cases = [
        (FileNotFoundError(2, "No such file"), "cannot read x: [Errno 2] No such file"),
        (
            UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
            "cannot read x: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    ]
    for exc, message in cases:
        with pytest.raises(InputDocumentError) as info:
            with guard:
                raise exc
        assert str(info.value) == message
        assert info.value.__cause__ is exc


@pytest.mark.parametrize(
    "exc, kinds",
    [(InternalInvariantError("bug"), ValueError), (KeyError("k"), OSError)],
    ids=["internal-error", "unlisted-kind"],
)
def test_input_errors_passes_other_exceptions_through(exc, kinds):
    with pytest.raises(type(exc)) as info:
        with input_errors("cannot read x", kinds):
            raise exc
    assert info.value is exc


def test_input_errors_without_an_error_raises_nothing():
    guard = input_errors("cannot read x")
    for i in range(2):
        with guard as entered:
            done = i
    assert entered is guard and done == 1
