import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rolerank.corpus import (
    NUM_TOKEN,
    ContextualTriple,
    RelevanceLabel,
    TripleParseError,
    build_corpus,
    canonicalize_role,
    parse_triples,
    tokenize,
    triple_to_json,
    write_triples,
)

# Unicode whitespace that str.split() splits on, mixed into generated text
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u202f\u3000"


def tokenize_oracle(sentence: str) -> list[str]:
    """The per-character tokenizer that the regex replaced, kept verbatim."""
    tokens = []
    for piece in sentence.lower().split():
        start, end = 0, len(piece)
        while start < end and not piece[start].isalnum():
            start += 1
        while end > start and not piece[end - 1].isalnum():
            end -= 1
        word = piece[start:end]
        if not word:
            continue
        tokens.append(NUM_TOKEN if word.isdigit() else word)
    return tokens


def record(**overrides) -> str:
    obj = {
        "id": "t1",
        "head": "BANK A",
        "role": "trustees",
        "tail": "BANK B",
        "sentences": ["Bank B serves as trustee."],
        "label": "RELEVANT",
    }
    obj.update(overrides)
    for key, value in list(obj.items()):
        if value is None:
            del obj[key]
    return json.dumps(obj)


class TestParseTriples:
    def test_basic_record(self):
        (t,) = parse_triples([record()])
        assert t.id == "t1"
        assert t.role == "trustee"  # canonicalized
        assert t.label is RelevanceLabel.RELEVANT
        assert t.sentences == ("Bank B serves as trustee.",)

    def test_missing_field_names_line(self):
        lines = [record(id="a"), record(id="b", role=None)]
        with pytest.raises(TripleParseError, match="line 2.*role"):
            parse_triples(lines)

    def test_order_preserved(self):
        lines = [record(id=i) for i in ("z", "a", "m")]
        assert [t.id for t in parse_triples(lines)] == ["z", "a", "m"]

    def test_duplicate_id(self):
        with pytest.raises(TripleParseError, match="duplicate id"):
            parse_triples([record(), record()])

    def test_unknown_label(self):
        with pytest.raises(TripleParseError, match="unknown relevance label"):
            parse_triples([record(label="SOMewhat_RELEVANT")])

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("relevant", RelevanceLabel.RELEVANT),
            ("Highly Relevant", RelevanceLabel.HIGHLY_RELEVANT),
            ("HIGHLY-RELEVANT", RelevanceLabel.HIGHLY_RELEVANT),
            ("neutral", RelevanceLabel.NEUTRAL),
            ("Irrelevant", RelevanceLabel.IRRELEVANT),
        ],
    )
    def test_label_spellings(self, raw, expected):
        (t,) = parse_triples([record(label=raw)])
        assert t.label is expected

    def test_label_optional(self):
        (t,) = parse_triples([record(label=None)])
        assert t.label is None

    def test_invalid_json_names_line(self):
        with pytest.raises(TripleParseError, match="line 1"):
            parse_triples(["{not json"])

    def test_sentences_bounds(self):
        with pytest.raises(TripleParseError, match="sentences"):
            parse_triples([record(sentences=[])])
        with pytest.raises(TripleParseError, match="sentences"):
            parse_triples([record(sentences=["a", "b", "c", "d"])])
        with pytest.raises(TripleParseError, match="sentences"):
            parse_triples([record(sentences=["ok", "   "])])

    @pytest.mark.parametrize(
        "line, message",
        [
            (record(id="b", head="  "), "field 'head' must be a nonempty string"),
            (record(id="b", tail=5), "field 'tail' must be a nonempty string"),
            (record(id="b", label=3), "'label' must be a string"),
            (json.dumps([record(id="b")]), "record must be a JSON object"),
        ],
        ids=["blank head", "tail a number", "label a number", "not an object"],
    )
    def test_malformed_record_names_line(self, line, message):
        with pytest.raises(TripleParseError, match=f"line 2.*{message}"):
            parse_triples([record(id="a"), line])

    def test_blank_lines_skipped(self):
        assert len(parse_triples(["", record(), "  "])) == 1

    def test_roundtrip(self, tmp_path):
        triples = parse_triples([record(id="a"), record(id="b", label="neutral")])
        path = tmp_path / "out.jsonl"
        with open(path, "w") as f:
            write_triples(triples, f)
        with open(path) as f:
            again = parse_triples(f)
        assert again == triples


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Morgan Stanley, as Trustee.") == [
            "morgan",
            "stanley",
            "as",
            "trustee",
        ]

    def test_internal_period_kept(self):
        assert tokenize("J.P. Morgan") == ["j.p", "morgan"]

    def test_empty(self):
        assert tokenize("") == []

    def test_number_sentinel(self):
        assert tokenize("raised 450 million in 2016.") == [
            "raised",
            "<num>",
            "million",
            "in",
            "<num>",
        ]

    def test_internal_punctuation_kept(self):
        assert tokenize("AT&T's well-known (subsidiary)") == [
            "at&t's",
            "well-known",
            "subsidiary",
        ]

    def test_pure_punctuation_dropped(self):
        assert tokenize("--- ... %%%") == []

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_token_invariants(self, sentence):
        for token in tokenize(sentence):
            assert token == token.lower()
            assert not any(c.isspace() for c in token)
            assert token
            if token != "<num>":
                assert token[0].isalnum() and token[-1].isalnum()
                assert tokenize(token) == [token]  # so a trained vocabulary always loads

    @given(st.lists(st.text(st.characters() | st.sampled_from(WHITESPACE + "\u03a3'"))))
    @example(["a\u03a3", "\u03a3a"])
    def test_joined_sentences_tokenize_alike(self, sentences):
        """``featurize`` tokenizes a context's sentences joined by a space."""
        assert tokenize(" ".join(sentences)) == [t for s in sentences for t in tokenize(s)]

    @given(st.text() | st.text(st.characters() | st.sampled_from(WHITESPACE)))
    @example("\u0130stanbul a\u00b2 x\u00a0y _a_ a_b \u2160\u2161 \u0660\u0661 \u00bd")
    @example("x\x1cy\u3000z\x85w 12\u00b3 \u0663\u0664")
    @settings(max_examples=1000, deadline=None)
    def test_equals_per_character_oracle(self, sentence):
        assert tokenize(sentence) == tokenize_oracle(sentence)


class TestCanonicalizeRole:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("affiliates", "affiliate"),
            ("trustee", "trustee"),
            ("Counterparties", "counterparty"),
            ("ISSUERS", "issuer"),
            ("business", "business"),  # -ss never stripped
            ("s", "s"),  # would strip to empty; kept
            ("a s", "a s"),  # a lone "s" word is kept: dropping it would leave "a "
        ],
    )
    def test_examples(self, raw, expected):
        assert canonicalize_role(raw) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_role("")
        with pytest.raises(ValueError):
            canonicalize_role("   ")

    @given(st.text(min_size=1, max_size=20).filter(str.strip))
    @settings(max_examples=500)
    @example("a s")
    @example("as s")
    @example("abies\ts")
    def test_idempotent(self, raw):
        once = canonicalize_role(raw)
        assert once and canonicalize_role(once) == once


class TestBuildCorpus:
    def triple(self, tid, sentences):
        return ContextualTriple(
            id=tid, head="A", role="issuer", tail="B", sentences=tuple(sentences)
        )

    def test_one_list_per_sentence(self):
        triples = [
            self.triple("a", ["one two", "three four", "five"]),
            self.triple("b", ["six seven", "eight", "nine ten"]),
        ]
        corpus = build_corpus(triples)
        assert len(corpus) == 6
        assert corpus[0] == ["one", "two"]

    def test_degenerate_sentence_dropped(self):
        triples = [self.triple("a", ["...", "real words"])]
        assert build_corpus(triples) == [["real", "words"]]

    def test_labeled_and_unlabeled_pooled(self):
        labeled = self.triple("a", ["alpha beta"])
        labeled = dataclasses.replace(labeled, label=RelevanceLabel.RELEVANT)
        unlabeled = self.triple("b", ["gamma delta"])
        assert build_corpus([labeled, unlabeled]) == [
            ["alpha", "beta"],
            ["gamma", "delta"],
        ]

    def test_order_stable(self):
        triples = [self.triple(str(i), [f"word{i}"]) for i in range(5)]
        assert build_corpus(triples) == [[f"word{i}"] for i in range(5)]


def test_triple_to_json_omits_missing_label():
    t = ContextualTriple(id="x", head="A", role="issuer", tail="B", sentences=("s",))
    assert "label" not in json.loads(triple_to_json(t))
