"""Test-user accounts and bearer tokens.

The paper used Facebook *test users* — "accounts that are invisible to
real user accounts" — and, for Google+, a single account shared by all
agents (§V).  :class:`AccountRegistry` models both styles: issue one
account per agent, or one shared account whose token every agent uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._hash import blake2b
from repro.errors import AuthenticationError

__all__ = ["Account", "AccountRegistry"]


@dataclass(frozen=True)
class Account:
    """A service account with a bearer token."""

    user_id: str
    token: str
    #: Test users are invisible to real accounts (Facebook's notion).
    is_test_user: bool = True


class AccountRegistry:
    """Issues accounts and validates tokens for one service."""

    def __init__(self, service_name: str) -> None:
        self._service_name = service_name
        self._by_token: dict[str, Account] = {}

    def create_account(self, user_id: str,
                       is_test_user: bool = True) -> Account:
        """Create (or return the existing) account for ``user_id``."""
        for account in self._by_token.values():
            if account.user_id == user_id:
                return account
        token = self._mint_token(user_id)
        account = Account(user_id=user_id, token=token,
                          is_test_user=is_test_user)
        self._by_token[token] = account
        return account

    def _mint_token(self, user_id: str) -> str:
        digest = blake2b(
            f"{self._service_name}:{user_id}".encode("utf-8"),
            digest_size=12,
        ).hexdigest()
        return f"tok_{digest}"

    def authenticate(self, token: str | None) -> Account:
        """Resolve a bearer token, raising 401 on failure."""
        if token is None:
            raise AuthenticationError("missing bearer token")
        account = self._by_token.get(token)
        if account is None:
            raise AuthenticationError("invalid bearer token")
        return account

    def accounts(self) -> list[Account]:
        return sorted(self._by_token.values(),
                      key=lambda account: account.user_id)
