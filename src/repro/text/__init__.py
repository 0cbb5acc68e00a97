"""Text substrate: normalisation, tokenisation, vagueness, TF-IDF.

Public surface of :mod:`repro.text`:

* :func:`normalize_text` and friends — canonical surface forms
* :func:`tokenize` / :func:`tokenize_tweet` — Twitter-aware tokenisation
* :func:`is_vague` / :func:`is_country_only` — the paper's profile filters
* :func:`parse_profile_location` — structural profile-field parsing
* :class:`TfIdfCorpus` — corpus statistics behind Twitris-style summaries
* :class:`StringInterner` — stable string → dense-id table
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "interner": ("StringInterner",),
    "normalize": (
        "collapse_spaces", "hangul_ratio", "is_hangul", "normalize_text",
        "strip_punctuation",
    ),
    "profile_parser": (
        "ParsedProfileLocation", "ProfileShape", "parse_profile_location",
    ),
    "tfidf": ("ScoredTerm", "TfIdfCorpus", "cosine_similarity"),
    "tokenize": ("STOPWORDS", "TweetTokens", "ngrams", "tokenize", "tokenize_tweet"),
    "vague": (
        "COUNTRY_PHRASES", "VAGUE_PHRASES", "is_country_only", "is_informative",
        "is_vague",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
