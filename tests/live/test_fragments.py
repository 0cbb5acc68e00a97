"""The fragment cache's entitlement: composed text == ``study_to_json``.

The delta builder stamps ``digest[:16]`` as a snapshot's public version,
where the digest is computed from cached per-user fragments instead of a
full re-serialisation.  That is only sound if the composition is *exact*
— character-for-character equal to the canonical document — which is
what this module proves on both study corpora and on the empty study.
"""

import hashlib
import json

from repro.analysis.serialization import study_digest, study_to_json
from repro.analysis.interner import study_interner
from repro.live import fragments


def fragments_of(study):
    """Render every fragment of ``study`` the way the delta builder does.

    Returns ``(observation_fragments, merged_entries, district_entries,
    interner_items)`` in the canonical document order.
    """
    per_user = {}
    for row in study.observations:
        per_user.setdefault(row.user_id, []).append(row)
    observation_fragments = [
        fragments.observation_fragment(rows) for rows in per_user.values()
    ]
    merged_entries = [
        fragments.merged_entry(uid, [row.render() for row in grouping.merged])
        for uid, grouping in study.groupings.items()
    ]
    district_entries = [
        fragments.district_entry(uid, district)
        for uid, district in study.profile_districts.items()
    ]
    interner_items = [
        fragments.render(text)
        for text in study_interner(
            study.observations, study.profile_districts
        ).to_lines()
    ]
    return observation_fragments, merged_entries, district_entries, interner_items


def compose(study):
    """The full composed document text for ``study``."""
    obs, merged, districts, interner_items = fragments_of(study)
    return "".join(
        fragments.compose_study_document(
            study.dataset_name,
            study.funnel.as_dict(),
            obs,
            merged,
            districts,
            study.api_stats.snapshot(),
            interner_items,
        )
    )


class TestExactComposition:
    def test_composed_text_is_study_to_json(self, corpus):
        """Character-for-character equality on a real study corpus."""
        _, _, study = corpus
        assert compose(study) == study_to_json(study)

    def test_document_digest_is_study_digest(self, corpus):
        _, _, study = corpus
        obs, merged, districts, interner_items = fragments_of(study)
        digest = fragments.document_digest(
            fragments.compose_study_document(
                study.dataset_name,
                study.funnel.as_dict(),
                obs,
                merged,
                districts,
                study.api_stats.snapshot(),
                interner_items,
            )
        )
        assert digest == study_digest(study)

    def test_digest_never_materialises_the_document(self):
        """``document_digest`` hashes chunk by chunk — equal to hashing
        the joined text, by construction."""
        chunks = ["abc", "", "déf", "\n x"]
        joined = hashlib.sha256("".join(chunks).encode("utf-8")).hexdigest()
        assert fragments.document_digest(iter(chunks)) == joined


class TestEmptyDocument:
    def test_empty_study_shape(self):
        """No users at all: arrays render ``[]``, objects ``{}``, and the
        text still equals the one ``json.dumps`` would produce."""
        funnel = {"total": 0, "kept": 0}
        api = {"calls": 0}
        composed = "".join(
            fragments.compose_study_document("empty", funnel, [], [], [], api, [])
        )
        document = {
            "format_version": 2,
            "dataset_name": "empty",
            "funnel": funnel,
            "observations": [],
            "merged": {},
            "profile_districts": {},
            "api_stats": api,
            "interner": [],
        }
        assert composed == json.dumps(document, ensure_ascii=False, indent=1)


class TestEmbedding:
    def test_embed_matches_json_dumps_nesting(self):
        """A standalone rendering embedded at depth d equals the text
        ``json.dumps`` produces for the same value nested d levels deep."""
        value = {"a": [1, 2, {"b": "seoul 서울"}], "c": None}
        wrapped = json.dumps({"x": value}, ensure_ascii=False, indent=1)
        embedded = '{\n "x": ' + fragments.embed(fragments.render(value), 1) + "\n}"
        assert embedded == wrapped

    def test_embed_leaves_first_line_alone(self):
        text = fragments.render([1, 2])
        assert fragments.embed(text, 3).splitlines()[0] == text.splitlines()[0]

    def test_render_is_canonical(self):
        assert fragments.render("서울") == '"서울"'  # ensure_ascii=False
        assert fragments.render({"b": 1, "a": 2}) == '{\n "b": 1,\n "a": 2\n}'
