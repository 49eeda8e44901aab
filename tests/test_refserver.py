import json
import time

import pytest

from constraintbench.refserver import ServerHandle, Store, dispatch


def call(store, method, path, body=None, token=None, query="", disabled=(), reset_token=None):
    headers = {}
    if token:
        headers["Authorization"] = f"Token {token}"
    body_text = json.dumps(body) if body is not None else ""
    return dispatch(store, method, path, query, headers, body_text,
                    disabled=frozenset(disabled), reset_token=reset_token)


@pytest.fixture
def store():
    return Store()


def register(store, username="alice", email=None, password="pw12345"):
    email = email or f"{username}@example.com"
    status, body = call(store, "POST", "/api/users",
                        {"user": {"username": username, "email": email, "password": password}})
    assert status == 200, body
    return body["user"]["token"]


def test_health_check(store):
    status, body = call(store, "GET", "/api/health-check")
    assert status == 200
    assert body == {"status": "ok"}


def test_register_login_roundtrip(store):
    register(store)
    status, body = call(store, "POST", "/api/users/login",
                        {"user": {"email": "alice@example.com", "password": "pw12345"}})
    assert status == 200
    user = body["user"]
    assert user["username"] == "alice"
    assert user["token"]
    assert set(user) == {"email", "token", "username", "bio", "image"}


def test_login_wrong_password_is_401(store):
    register(store)
    status, _ = call(store, "POST", "/api/users/login",
                     {"user": {"email": "alice@example.com", "password": "wrong"}})
    assert status == 401


def test_duplicate_username_rejected(store):
    register(store)
    status, body = call(store, "POST", "/api/users",
                        {"user": {"username": "alice", "email": "other@example.com",
                                  "password": "x12345"}})
    assert status == 422
    assert "errors" in body


def test_current_user_requires_token(store):
    status, _ = call(store, "GET", "/api/user")
    assert status == 401


def test_update_user_email(store):
    token = register(store)
    status, body = call(store, "PUT", "/api/user", {"user": {"email": "new@example.com"}},
                        token=token)
    assert status == 200
    assert body["user"]["email"] == "new@example.com"
    # old email no longer logs in, new one does
    status, _ = call(store, "POST", "/api/users/login",
                     {"user": {"email": "alice@example.com", "password": "pw12345"}})
    assert status == 401
    status, _ = call(store, "POST", "/api/users/login",
                     {"user": {"email": "new@example.com", "password": "pw12345"}})
    assert status == 200


def make_article(store, token, title="How to train your dragon", tags=("dragons",)):
    status, body = call(store, "POST", "/api/articles",
                        {"article": {"title": title, "description": "d", "body": "b",
                                     "tagList": list(tags)}}, token=token)
    assert status == 200, body
    return body["article"]


def test_article_lifecycle(store):
    token = register(store)
    article = make_article(store, token)
    assert article["slug"] == "how-to-train-your-dragon"
    assert article["favorited"] is False
    assert article["favoritesCount"] == 0
    assert article["author"]["username"] == "alice"

    status, body = call(store, "PUT", f"/api/articles/{article['slug']}",
                        {"article": {"body": "rewritten"}}, token=token)
    assert status == 200
    assert body["article"]["body"] == "rewritten"
    assert body["article"]["updatedAt"] != article["updatedAt"]

    status, _ = call(store, "DELETE", f"/api/articles/{article['slug']}", token=token)
    assert status == 200
    status, _ = call(store, "GET", f"/api/articles/{article['slug']}")
    assert status == 404


def test_slug_collision_gets_counter(store):
    token = register(store)
    first = make_article(store, token, title="Same Title")
    second = make_article(store, token, title="Same Title")
    assert first["slug"] == "same-title"
    assert second["slug"] == "same-title-2"


def test_title_update_regenerates_slug(store):
    token = register(store)
    article = make_article(store, token, title="Old Title")
    status, body = call(store, "PUT", "/api/articles/old-title",
                        {"article": {"title": "New Title"}}, token=token)
    assert status == 200
    assert body["article"]["slug"] == "new-title"


def test_only_author_can_modify(store):
    token = register(store)
    make_article(store, token)
    other = register(store, username="bob")
    status, _ = call(store, "PUT", "/api/articles/how-to-train-your-dragon",
                     {"article": {"body": "hijack"}}, token=other)
    assert status == 403
    status, _ = call(store, "DELETE", "/api/articles/how-to-train-your-dragon", token=other)
    assert status == 403


def test_favorites_flip_and_count(store):
    token = register(store)
    slug = make_article(store, token)["slug"]
    other = register(store, username="bob")

    status, body = call(store, "POST", f"/api/articles/{slug}/favorite", token=other)
    assert status == 200
    assert body["article"]["favorited"] is True
    assert body["article"]["favoritesCount"] == 1

    # idempotent per user: favoriting twice keeps the count at 1
    status, body = call(store, "POST", f"/api/articles/{slug}/favorite", token=other)
    assert body["article"]["favoritesCount"] == 1

    status, body = call(store, "DELETE", f"/api/articles/{slug}/favorite", token=other)
    assert body["article"]["favorited"] is False
    assert body["article"]["favoritesCount"] == 0


def test_favorited_listing_filter(store):
    token = register(store)
    slug = make_article(store, token)["slug"]
    other = register(store, username="bob")
    call(store, "POST", f"/api/articles/{slug}/favorite", token=other)
    status, body = call(store, "GET", "/api/articles", query="favorited=bob")
    assert status == 200
    assert body["articlesCount"] == 1
    status, body = call(store, "GET", "/api/articles", query="favorited=alice")
    assert body["articlesCount"] == 0


def test_comments_lifecycle_and_cascade_delete(store):
    token = register(store)
    slug = make_article(store, token)["slug"]
    status, body = call(store, "POST", f"/api/articles/{slug}/comments",
                        {"comment": {"body": "hello"}}, token=token)
    assert status == 200
    comment_id = body["comment"]["id"]
    assert comment_id == 1

    status, body = call(store, "GET", f"/api/articles/{slug}/comments")
    assert len(body["comments"]) == 1

    # deleting the article removes its comments from the store
    call(store, "DELETE", f"/api/articles/{slug}", token=token)
    assert store.comments == {}


def test_delete_foreign_comment_forbidden(store):
    token = register(store)
    slug = make_article(store, token)["slug"]
    status, body = call(store, "POST", f"/api/articles/{slug}/comments",
                        {"comment": {"body": "hello"}}, token=token)
    other = register(store, username="bob")
    status, _ = call(store, "DELETE", f"/api/articles/{slug}/comments/1", token=other)
    assert status == 403


def test_profiles_follow_unfollow(store):
    token = register(store)
    register(store, username="celeb")
    status, body = call(store, "GET", "/api/profiles/celeb", token=token)
    assert body["profile"]["following"] is False

    status, body = call(store, "POST", "/api/profiles/celeb/follow", token=token)
    assert body["profile"]["following"] is True

    status, body = call(store, "DELETE", "/api/profiles/celeb/follow", token=token)
    assert body["profile"]["following"] is False


def test_feed_shows_followed_authors_only(store):
    token = register(store)
    celeb_token = register(store, username="celeb")
    make_article(store, celeb_token, title="Celebrity Post")
    status, body = call(store, "GET", "/api/articles/feed", token=token)
    assert body["articlesCount"] == 0
    call(store, "POST", "/api/profiles/celeb/follow", token=token)
    status, body = call(store, "GET", "/api/articles/feed", token=token)
    assert body["articlesCount"] == 1
    assert body["articles"][0]["author"]["username"] == "celeb"


def test_tags_sorted_union(store):
    token = register(store)
    make_article(store, token, title="One", tags=("zeta", "alpha"))
    make_article(store, token, title="Two", tags=("alpha", "mid"))
    status, body = call(store, "GET", "/api/tags")
    assert body["tags"] == ["alpha", "mid", "zeta"]


def test_listing_filters_and_pagination(store):
    token = register(store)
    for i in range(5):
        make_article(store, token, title=f"Post number {i}", tags=("bulk",))
    status, body = call(store, "GET", "/api/articles", query="limit=2&offset=1")
    assert body["articlesCount"] == 5
    assert len(body["articles"]) == 2
    # newest first: offset 1 of [4,3,2,1,0]
    assert body["articles"][0]["slug"] == "post-number-3"
    status, body = call(store, "GET", "/api/articles", query="author=nobody")
    assert body["articlesCount"] == 0


def test_username_rename_cascades(store):
    token = register(store)
    slug = make_article(store, token)["slug"]
    fan = register(store, username="fan")
    call(store, "POST", f"/api/articles/{slug}/favorite", token=fan)
    call(store, "POST", "/api/profiles/alice/follow", token=fan)
    call(store, "POST", f"/api/articles/{slug}/comments",
         {"comment": {"body": "nice"}}, token=token)

    status, body = call(store, "PUT", "/api/user", {"user": {"username": "alicia"}}, token=token)
    assert status == 200
    assert body["user"]["username"] == "alicia"

    status, body = call(store, "GET", f"/api/articles/{slug}", token=fan)
    assert body["article"]["author"]["username"] == "alicia"
    assert body["article"]["favoritesCount"] == 1
    status, body = call(store, "GET", "/api/profiles/alicia", token=fan)
    assert status == 200
    assert body["profile"]["following"] is True
    status, body = call(store, "GET", f"/api/articles/{slug}/comments")
    assert body["comments"][0]["author"]["username"] == "alicia"
    # the pre-rename token still authenticates the renamed account
    status, body = call(store, "GET", "/api/user", token=token)
    assert body["user"]["username"] == "alicia"


def test_negative_pagination_clamped(store):
    token = register(store)
    make_article(store, token)
    status, body = call(store, "GET", "/api/articles", query="limit=-5&offset=-2")
    assert status == 200
    assert body["articles"] == []
    assert body["articlesCount"] == 1


def test_unknown_path_404(store):
    status, _ = call(store, "GET", "/api/everything")
    assert status == 404
    status, _ = call(store, "GET", "/not-api")
    assert status == 404


def test_wrong_method_405(store):
    status, _ = call(store, "PATCH", "/api/tags")
    assert status == 405


def test_invalid_json_body_422(store):
    status, body = dispatch(Store(), "POST", "/api/users", "", {}, "{not json")
    assert status == 422


def test_disabled_groups_answer_404(store):
    token = register(store)
    slug = make_article(store, token)["slug"]
    status, _ = call(store, "POST", f"/api/articles/{slug}/favorite", token=token,
                     disabled=("favorites",))
    assert status == 404
    status, _ = call(store, "GET", f"/api/articles/{slug}/comments", disabled=("comments",))
    assert status == 404
    status, _ = call(store, "GET", "/api/profiles/alice", disabled=("profiles",))
    assert status == 404
    # non-disabled routes still work
    status, _ = call(store, "GET", f"/api/articles/{slug}", disabled=("favorites", "comments"))
    assert status == 200


def test_reset_endpoint_requires_token(store):
    register(store)
    status, _ = call(store, "POST", "/api/__reset")
    assert status == 404  # disabled without a configured secret
    status, _ = dispatch(store, "POST", "/api/__reset", "", {"X-Reset-Token": "s3cret"}, "",
                         reset_token="s3cret")
    assert status == 200
    assert store.users == {}


def test_store_determinism():
    def transcript(store):
        token = register(store)
        article = make_article(store, token)
        call(store, "POST", f"/api/articles/{article['slug']}/favorite", token=token)
        status, body = call(store, "GET", f"/api/articles/{article['slug']}", token=token)
        return json.dumps(body, sort_keys=True)

    assert transcript(Store()) == transcript(Store())


def test_favorites_count_matches_favoriting_set(store):
    token = register(store)
    slug = make_article(store, token)["slug"]
    for name in ("u1", "u2", "u3"):
        other = register(store, username=name)
        call(store, "POST", f"/api/articles/{slug}/favorite", token=other)
    article = store.article(slug)
    assert article.favorited_by == {"u1", "u2", "u3"}
    status, body = call(store, "GET", f"/api/articles/{slug}")
    assert body["article"]["favoritesCount"] == 3


def test_server_handle_stops_promptly():
    handle = ServerHandle(port=0).start()
    started = time.monotonic()
    handle.stop()
    assert time.monotonic() - started < 0.1
