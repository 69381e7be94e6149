"""Record classes: fields and defaults, equality and hash by field values,
no assignment after construction, and slots."""

import pytest

from polyreglab.logic import Letter
from polyreglab.records import field, record
from polyreglab.words import Word


@record
class Point:
    x: int
    y: int = 0


@record(eq=False)
class Box:
    item: object
    size: int = 1
    cache: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cache", {"size": self.size})


@record(slots=True)
class Pair:
    left: str
    right: str = "b"


def test_fields_defaults_and_keywords():
    assert (Point(1).x, Point(1).y) == (1, 0)
    assert Point(y=2, x=1) == Point(1, 2)
    with pytest.raises(TypeError, match="missing argument 'x'"):
        Point()
    with pytest.raises(TypeError, match="unexpected arguments"):
        Point(1, z=3)
    with pytest.raises(TypeError, match="unexpected arguments"):
        Point(1, x=1)
    with pytest.raises(TypeError, match="takes 2 arguments"):
        Point(1, 2, 3)


def test_equality_and_hash_are_those_of_the_field_tuple():
    """Records of one class are equal when their fields are, and hash as
    the tuple of their fields, as frozen dataclasses do, so that sets of
    records iterate in the same order as they did with dataclasses."""
    assert Point(1, 2) == Point(1, 2) and Point(1, 2) != Point(2, 1)
    assert Point(1, 2) != (1, 2)
    assert hash(Point(1, 2)) == hash((1, 2))
    assert hash(Word(("a", "b"))) == hash((("a", "b"),))
    assert Pair("a") == Pair("a", "b") and hash(Pair("a")) == hash(("a", "b"))
    box = Box(1)
    assert box == box and box != Box(1)
    assert hash(box) == object.__hash__(box)


def test_records_are_frozen():
    point, box = Point(1), Box(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        point.x = 2
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del point.x
    with pytest.raises(AttributeError):
        box.size = 2
    with pytest.raises(AttributeError):
        Pair("a").left = "c"


def test_init_false_fields_are_set_by_post_init():
    box = Box("a", 3)
    assert (box.item, box.size, box.cache) == ("a", 3, {"size": 3})


def test_repr_shows_the_fields_in_order():
    assert repr(Point(1, 2)) == "Point(x=1, y=2)"
    assert repr(Box("a")) == "Box(item='a', size=1)"
    assert repr(Pair("a")) == "Pair(left='a', right='b')"
    assert repr(Letter("a", "x")) == "Letter(letter='a', var='x')"


def test_slotted_records_have_no_instance_dict():
    assert not hasattr(Pair("a"), "__dict__")
    assert not hasattr(Word(), "__dict__")
    assert not hasattr(Letter("a", "x"), "__dict__")
    assert Pair.__qualname__ == "Pair" and Pair("a").right == "b"
