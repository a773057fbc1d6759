"""One registry for every plug-in kind.

Design points (:mod:`repro.api.registry`), execution backends
(:mod:`repro.pipeline.backends.registry`), experiments
(:mod:`repro.api.experiment`), benchmarks (:mod:`repro.perf.registry`)
and cache policies (:mod:`repro.cache.policy`) are each one
:class:`Registry` over their entry dataclass, so they share one set of
rules:

* a name is a non-empty string;
* registering a name that is taken raises :class:`ConfigError`, unless
  ``replace=True``;
* an entry's description defaults to the first line of a docstring;
* the built-in entries are imported on first use -- before any lookup,
  listing, registration or removal -- so a clash with a built-in fails
  at the ``register_*`` call and removing a built-in sticks;
* an unknown name raises ``ConfigError("unknown <kind> ...; one of
  (...)")``.
"""

from __future__ import annotations

import importlib
import threading
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError

__all__ = ["Registry"]


class Registry:
    """Entries of one kind, keyed by name.

    ``entry_type(name, fn, description=..., **fields)`` builds the entry a
    registration stores: every entry dataclass takes its name and the
    registered callable first.  ``builtins`` names the modules whose
    import registers the built-in entries.  ``sort`` lists names sorted
    instead of in registration order, and ``doc(fn)`` is the docstring
    a missing description is taken from.
    """

    def __init__(
        self,
        kind: str,
        entry_type: Callable,
        builtins: Sequence[str] = (),
        *,
        sort: bool = False,
        doc: Callable[[Callable], Optional[str]] = attrgetter("__doc__"),
    ):
        self.kind = kind
        self._entry_type = entry_type
        self._builtins = tuple(builtins)
        self._sort = sort
        self._doc = doc
        self._entries: Dict[str, Any] = {}
        self._builtin_loaded = not self._builtins
        self._builtin_lock = threading.RLock()
        self._builtin_local = threading.local()

    def _ensure_builtin(self) -> None:
        """Import the built-in registrations (once, on success).

        The loaded flag is only set after a successful import, so a
        failing import surfaces its real error on every call instead of
        leaving the registry silently empty.  Re-entrant calls from the
        loading thread (the built-in modules register while they
        import) return at once; other threads wait on the lock until
        the registry is complete (campaign workers may race here on
        first use).  Once loaded, no call takes the lock.
        """
        if self._builtin_loaded or getattr(
            self._builtin_local, "loading", False
        ):
            return
        with self._builtin_lock:
            if self._builtin_loaded:
                return
            self._builtin_local.loading = True
            try:
                for module in self._builtins:
                    importlib.import_module(module)
            finally:
                self._builtin_local.loading = False
            self._builtin_loaded = True

    def register(
        self,
        name: str,
        *,
        description: str = "",
        replace: bool = False,
        **fields: Any,
    ) -> Callable:
        """Decorator storing ``entry_type(name, fn, ...)`` under ``name``."""
        if not name or not isinstance(name, str):
            raise ConfigError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        self._ensure_builtin()

        def decorator(fn: Callable) -> Callable:
            if name in self._entries and not replace:
                raise ConfigError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass replace=True to override"
                )
            self._entries[name] = self._entry_type(
                name, fn,
                description=description
                or (self._doc(fn) or "").strip().split("\n")[0],
                **fields,
            )
            return fn

        return decorator

    def unregister(self, name: str) -> None:
        """Remove ``name`` (no-op if absent)."""
        self._ensure_builtin()
        self._entries.pop(name, None)

    def names(self) -> Tuple[str, ...]:
        """Every registered name."""
        self._ensure_builtin()
        if self._sort:
            return tuple(sorted(self._entries))
        return tuple(self._entries)

    def entry(self, name: str) -> Any:
        """The entry registered as ``name``; :class:`ConfigError` if none."""
        self._ensure_builtin()
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigError(
                f"unknown {self.kind} {name!r}; one of {self.names()}"
            ) from None

    def with_tag(self, tag: str) -> Tuple[str, ...]:
        """Registered names whose entry carries ``tag``."""
        return tuple(
            name for name in self.names() if tag in self._entries[name].tags
        )
