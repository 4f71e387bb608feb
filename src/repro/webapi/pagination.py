"""Cursor pagination for list endpoints.

Real feed/blog APIs never return the full history: they return the
newest N items plus an opaque cursor for the next page.  The simulated
services do the same, which keeps response sizes realistic as a
campaign's history accumulates and lets tests exercise the multi-page
path explicitly.

Cursors are item-anchored ("everything after item X"), the robust
choice under concurrent inserts: a new item appearing at the head
never shifts the window an in-flight cursor points at.  A cursor whose
anchor has disappeared (e.g. pruned by retention) restarts from the
head, which mirrors how production APIs degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import InvalidRequestError

__all__ = ["Page", "paginate", "page_limit", "DEFAULT_PAGE_SIZE"]

#: Default page size for service list endpoints.
DEFAULT_PAGE_SIZE = 25


@dataclass(frozen=True)
class Page:
    """One page of results plus the cursor for the next page."""

    items: tuple[str, ...]
    #: Cursor to pass for the following page; None when exhausted.
    next_cursor: str | None

    @property
    def is_last(self) -> bool:
        return self.next_cursor is None


def page_limit(limit: object) -> int:
    """``limit`` if it is a page size — an ``int`` of at least 1.

    Handlers pass the request's ``limit`` parameter straight through,
    so anything else is the client's mistake (HTTP 400), checked
    before it is compared.
    """
    if type(limit) is not int or limit < 1:
        raise InvalidRequestError(
            f"limit must be an integer >= 1, got {limit!r}")
    return limit


def paginate(items: Sequence[str], cursor: str | None = None,
             limit: int = DEFAULT_PAGE_SIZE) -> Page:
    """Slice one page out of ``items`` (already in response order).

    Parameters
    ----------
    items:
        The full result sequence, newest first.
    cursor:
        None for the first page, else a value previously returned in
        :attr:`Page.next_cursor` (the id of the last item served).
    limit:
        Maximum items per page (:func:`page_limit`).
    """
    limit = page_limit(limit)
    start = 0
    if cursor is not None:
        try:
            start = items.index(cursor) + 1
        except ValueError:
            start = 0  # anchor gone (pruned): restart from the head
    window = tuple(items[start:start + limit])
    exhausted = start + limit >= len(items)
    next_cursor = None
    if window and not exhausted:
        next_cursor = window[-1]
    return Page(window, next_cursor)
