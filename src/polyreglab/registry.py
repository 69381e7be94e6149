"""Where a reference to one kind of function is turned into the function.

Each kind (interpretations, regular functions, combinator trees) has one
``Registry``, defined next to its builtin makers.  Its ``load`` answers
every reference to the kind: a builtin name gives the builtin, built once
on first use; anything else is the path of a definition file of the kind.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping


class Registry:
    def __init__(
        self,
        kind: str,
        noun: str,
        extension: str,
        makers: Mapping[str, Callable[[], Any]],
        parse: Callable[[str, str, str], Any],
    ) -> None:
        self.kind = kind  # the prefix of a FN reference, as in ``2dft:NAME``
        self.noun = noun
        self.extension = extension
        self._makers = makers
        self._parse = parse  # (file text, file basename, file directory) -> object
        self._built: dict[str, Any] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._makers

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._makers))

    def builtin(self, name: str) -> Any:
        if name not in self._makers:
            raise KeyError(f"no builtin {self.noun} named {name!r}")
        if name not in self._built:
            self._built[name] = self._makers[name]()
        return self._built[name]

    def load(self, ref: str, base_dir: str = "") -> Any:
        """The builtin named ``ref``, else the object defined by the file at
        ``ref``, read relative to ``base_dir`` (the current directory when
        empty) and named by its basename."""
        if ref in self._makers:
            return self.builtin(ref)
        path = os.path.join(base_dir, ref)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        return self._parse(text, os.path.basename(path), os.path.dirname(path))
