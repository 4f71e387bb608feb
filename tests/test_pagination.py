"""Tests for cursor pagination, at the helper and the service level."""

import pytest

from repro.errors import InvalidRequestError
from repro.webapi import DEFAULT_PAGE_SIZE, ApiClient, Page, paginate

from tests.test_services import await_value, make_world
from repro.services import BloggerService


class TestPaginateHelper:
    ITEMS = [f"M{i}" for i in range(10)]

    def test_first_page(self):
        page = paginate(self.ITEMS, cursor=None, limit=4)
        assert page.items == ("M0", "M1", "M2", "M3")
        assert page.next_cursor == "M3"
        assert not page.is_last

    def test_following_pages(self):
        page = paginate(self.ITEMS, cursor="M3", limit=4)
        assert page.items == ("M4", "M5", "M6", "M7")
        last = paginate(self.ITEMS, cursor=page.next_cursor, limit=4)
        assert last.items == ("M8", "M9")
        assert last.is_last

    def test_exact_boundary_is_last_page(self):
        page = paginate(self.ITEMS, cursor="M4", limit=5)
        assert page.items == ("M5", "M6", "M7", "M8", "M9")
        assert page.is_last

    def test_vanished_cursor_restarts_from_head(self):
        page = paginate(self.ITEMS, cursor="pruned-away", limit=3)
        assert page.items == ("M0", "M1", "M2")

    def test_empty_items(self):
        page = paginate([], cursor=None, limit=5)
        assert page.items == ()
        assert page.is_last

    def test_new_head_items_do_not_shift_cursors(self):
        # An item prepended after the first page must not disturb a
        # cursor anchored at M3.
        grown = ["NEW"] + self.ITEMS
        page = paginate(grown, cursor="M3", limit=4)
        assert page.items == ("M4", "M5", "M6", "M7")

    def test_cursor_at_final_item_yields_exhausted_empty_page(self):
        # A client that pages to the end and polls once more gets an
        # empty terminal page, not a restart.
        page = paginate(self.ITEMS, cursor="M9", limit=4)
        assert page.items == ()
        assert page.is_last

    def test_exhausted_cursor_sees_items_appended_later(self):
        # The follow-mode idiom: keep the last cursor, poll after the
        # producer appends, receive only the new tail.
        page = paginate(self.ITEMS + ["M10", "M11"], cursor="M9",
                        limit=4)
        assert page.items == ("M10", "M11")
        assert page.is_last

    def test_invalid_limit_rejected(self):
        with pytest.raises(InvalidRequestError):
            paginate(self.ITEMS, cursor=None, limit=0)
        with pytest.raises(InvalidRequestError):
            paginate(self.ITEMS, cursor=None, limit=-3)

    def test_vanished_cursor_restart_is_a_full_first_page(self):
        # The restart must behave exactly like cursor=None — same
        # window, same next_cursor — so a degraded client re-converges.
        fresh = paginate(self.ITEMS, cursor=None, limit=3)
        degraded = paginate(self.ITEMS, cursor="pruned-away", limit=3)
        assert degraded == fresh
        assert degraded.next_cursor == "M2"

    def test_page_dataclass(self):
        page = Page(items=("a",), next_cursor=None)
        assert page.is_last


class TestServicePagination:
    def make_blogger_with_posts(self, count):
        sim, topo, net, rng = make_world()
        service = BloggerService(sim, topo, net, rng)
        session = service.create_session("oregon", "agent-oregon")
        for index in range(count):
            await_value(sim, session.post_message(f"P{index:02d}"))
        return sim, net, service, session

    @staticmethod
    def walk_cursor_chain(sim, net, session, limit):
        """Follow ``next_cursor`` with raw GETs -> (ids, page count)."""
        client = ApiClient(net, "agent-oregon", session.routes.api_host,
                           session.account.token)
        collected, params, pages = [], {"limit": limit}, 0
        while True:
            body = await_value(
                sim, client.get(session.routes.fetch_path, params)).body
            collected.extend(body["messages"])
            pages += 1
            if body["next_cursor"] is None:
                return collected, pages
            params = {"limit": limit, "cursor": body["next_cursor"]}

    def test_single_page_fetch_returns_newest(self):
        sim, _, _, session = self.make_blogger_with_posts(
            DEFAULT_PAGE_SIZE + 5)
        view = await_value(sim, session.fetch_messages())
        assert len(view) == DEFAULT_PAGE_SIZE
        # Chronological order, ending at the newest post.
        assert view[-1] == f"P{DEFAULT_PAGE_SIZE + 4:02d}"
        assert list(view) == sorted(view)

    def test_cursor_chain_walks_every_post(self):
        sim, net, _, session = self.make_blogger_with_posts(12)
        collected, pages = self.walk_cursor_chain(sim, net, session, 5)
        assert pages == 3
        # Newest first, every post exactly once.
        assert collected == [f"P{i:02d}" for i in reversed(range(12))]

    def test_history_counts_each_page_as_a_read(self):
        sim, net, service, session = self.make_blogger_with_posts(12)
        route = ("GET", session.routes.fetch_path)
        stats = service._endpoints["blogger-api"].stats
        before = stats.requests_by_route.get(route, 0)
        self.walk_cursor_chain(sim, net, session, 5)
        assert stats.requests_by_route[route] == before + 3
