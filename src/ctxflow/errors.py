"""Exception types raised by the ctxflow engine."""

from __future__ import annotations


class CtxflowError(Exception):
    """Base class for all ctxflow errors."""


class MacroSyntaxError(CtxflowError):
    """A macro document line that does not parse. Line numbers are 1-based."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class UnclosedBlockError(MacroSyntaxError):
    """A contextBlock without a matching `end`."""


class DuplicateElementError(CtxflowError):
    def __init__(self, name: str):
        super().__init__(f"element already attached: {name}")
        self.name = name


class UnknownElementError(CtxflowError):
    def __init__(self, name: str):
        super().__init__(f"unknown element: {name}")
        self.name = name


class MissingAttributeError(CtxflowError):
    def __init__(self, element: str, key: str):
        super().__init__(f"element {element} has no attribute {key}")
        self.element = element
        self.key = key


class MissingArgError(CtxflowError):
    def __init__(self, key: str):
        super().__init__(f"no argument binding for @args key: {key}")
        self.key = key


class UnresolvedSourceError(CtxflowError):
    """A flow source descriptor that matches no attached element."""


class UnresolvedAliasError(CtxflowError):
    """An alias whose pattern matches no attached element."""


class AmbiguousAliasError(CtxflowError):
    """An alias whose pattern matches more than one attached element."""


class CycleError(CtxflowError):
    """A cycle among metadata-flow slots. `path` lists `element.attribute` hops."""

    def __init__(self, path: list[str]):
        super().__init__("flow cycle: " + " -> ".join(path))
        self.path = path


class DependencyCycleError(CtxflowError):
    """A cycle among element sequencing dependencies."""

    def __init__(self, path: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(path))
        self.path = path


class CollisionError(CtxflowError):
    """Collisions under ``--strict-collisions``, one line each; `events` are the SHADOW events."""

    def __init__(self, events: list):
        super().__init__("\n".join(
            f"collision: {e.element}.{e.attribute}: {e.old_doc} ({e.old_value}) "
            f"shadowed by {e.new_doc} ({e.new_value})" for e in events
        ))
        self.events = events


class UnknownHandlerError(CtxflowError):
    def __init__(self, name: str):
        super().__init__(f"handler not in library: {name}")
        self.name = name


class HandlerError(CtxflowError):
    """A handler raised while processing a framework message; aborts the run."""

    def __init__(self, element: str, task: str, cause: BaseException):
        super().__init__(f"handler failed for {element} on task {task}: {cause}")
        self.element = element
        self.task = task
        self.cause = cause


class CheckFailedError(CtxflowError):
    def __init__(self, target: str, expected: str, actual: str):
        super().__init__(f"check failed for {target}: expected {expected!r}, got {actual!r}")
        self.target = target
        self.expected = expected
        self.actual = actual


class NotReducedError(CtxflowError):
    """An emitter that requires a fully reduced state saw remaining flows."""


class KvSourceError(CtxflowError):
    """A malformed or missing key/value source file."""
