"""Fixtures shared by more than one test file."""

import sys

import pytest


@pytest.fixture
def digit_limit():
    """Python's default limit of 4300 digits on int/str conversion, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
