"""Spearman, similarity/classification scoring, lexicon retrieval, reports."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from imglex import evaluation
from imglex.errors import DataError, EvalError
from imglex.evaluation import (
    ClassTask,
    LexiconPair,
    ReportRow,
    ScoredResult,
    SimTask,
    doc_repr,
    emit_report,
    eval_classification,
    eval_similarity,
    format_cell,
    format_score,
    lexicon_retrieval,
    load_lexicon,
    load_sim_task,
    spearman,
    task_token,
    train_softmax_regression,
)
from imglex.textproc import LangMode

from conftest import naive_ranks, naive_spearman
from oracles import lexicon_retrieval_loop


def test_spearman_identical_order():
    assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_spearman_reversal():
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_hand_case_with_tie():
    # ranks x = [1, 2.5, 2.5, 4]; rho = 4.5 / sqrt(22.5)
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(4.5 / math.sqrt(22.5), abs=1e-12)


def test_spearman_degenerate():
    with pytest.raises(EvalError, match="degenerate ranking"):
        spearman([1.0], [2.0])
    with pytest.raises(EvalError, match="degenerate ranking"):
        spearman([3, 3, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite input"):
            spearman([1, 2, bad], [1, 2, 3])
        with pytest.raises(ValueError, match="non-finite input"):
            spearman([1, 2, 3], [bad, 2, 3])


def test_spearman_matches_naive_oracle():
    rng = random.Random(1)
    cases = [([0.0, -0.0, 1.0, -1.0, 0.0], [2, 1, 3, 1, 5])]  # -0.0 ties with 0.0
    for _ in range(300):
        n = rng.randrange(2, 51)
        x = [rng.randrange(8) for _ in range(n)]
        y = [rng.randrange(8) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        cases.append((x, y))
    for x, y in cases:
        assert evaluation._fractional_ranks(np.asarray(x, dtype=np.float64)).tolist() == naive_ranks(x)
        assert spearman(x, y) == pytest.approx(naive_spearman(x, y), abs=1e-12)


def test_spearman_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)


def test_spearman_monotone_transform_invariance():
    rng = random.Random(3)
    x = [rng.uniform(0.1, 10) for _ in range(30)]
    y = [rng.uniform(0.1, 10) for _ in range(30)]
    base = spearman(x, y)
    assert spearman([2 * v + 3 for v in x], y) == pytest.approx(base, abs=1e-12)
    assert spearman([v**3 for v in x], y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, [2 * v + 3 for v in y]) == pytest.approx(base, abs=1e-12)


def unit(*values):
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_task_token_modes():
    assert task_token("en:Dog", LangMode.AWARE) == "en:dog"
    assert task_token("en:dog", LangMode.UNAWARE) == "dog"
    assert task_token("dog", LangMode.UNAWARE) == "dog"
    assert task_token("en:two words", LangMode.AWARE) is None
    with pytest.raises(EvalError, match="language tag"):
        task_token("dog", LangMode.AWARE)


def test_eval_similarity_perfect_order():
    vectors = {
        "en:a": unit(1, 0, 0),
        "de:b": unit(1, 0.2, 0),
        "en:c": unit(0, 1, 0),
        "fr:d": unit(-1, 0, 0.1),
    }
    task = SimTask(
        name="t",
        pairs=[("en:a", "de:b", 9.0), ("en:a", "en:c", 5.0), ("en:a", "fr:d", 1.0)],
    )
    result = eval_similarity(vectors, task, LangMode.AWARE)
    assert result.score == pytest.approx(1.0)
    assert result.coverage == 1.0


def test_eval_similarity_coverage_counting():
    vectors = {"en:a": unit(1, 0), "en:b": unit(0, 1), "en:c": unit(1, 1)}
    pairs = [("en:a", "en:b", 1.0), ("en:a", "en:c", 2.0), ("en:b", "en:c", 3.0)]
    pairs += [("en:a", "en:zzz", 4.0), ("en:q", "en:b", 5.0)]
    result = eval_similarity(vectors, SimTask(name="t", pairs=pairs), LangMode.AWARE)
    assert result.n_total == 5
    assert result.n_used == 3
    assert result.coverage == pytest.approx(0.6)


def test_eval_similarity_oov_words_not_hashed():
    # A pair with an OOV word reduces coverage instead of matching a hash bucket.
    vectors = {"en:a": unit(1, 0), "en:b": unit(0, 1), "en:c": unit(1, 1)}
    pairs = [("en:a", "en:b", 1.0), ("en:a", "en:c", 2.0), ("en:a", "en:unk", 3.0)]
    result = eval_similarity(vectors, SimTask(name="t", pairs=pairs), LangMode.AWARE)
    assert result.n_used == 2
    assert result.coverage == pytest.approx(2 / 3)


def test_eval_similarity_hand_oracle():
    vectors = {
        "en:w": unit(1, 0),
        "de:x": unit(1, 1),
        "en:y": unit(0, 1),
        "fr:z": unit(-1, 1),
    }
    pairs = [
        ("en:w", "de:x", 7.0),
        ("en:w", "en:y", 3.0),
        ("en:w", "fr:z", 1.0),
        ("de:x", "en:y", 6.0),
    ]
    model = [np.dot(vectors[a], vectors[b]) for a, b, _ in pairs]
    human = [s for _, _, s in pairs]
    expected = naive_spearman(model, human)
    result = eval_similarity(vectors, SimTask(name="t", pairs=pairs), LangMode.AWARE)
    assert result.score == pytest.approx(expected, abs=1e-12)


def test_eval_similarity_requires_two_covered_pairs():
    vectors = {"en:a": unit(1, 0), "en:b": unit(0, 1)}
    task = SimTask(name="t", pairs=[("en:a", "en:b", 1.0), ("en:missing", "en:b", 2.0)])
    with pytest.raises(EvalError, match="fewer than 2 covered"):
        eval_similarity(vectors, task, LangMode.AWARE)


def test_eval_similarity_scale_invariance():
    rng = np.random.default_rng(4)
    vectors = {f"en:w{i}": rng.normal(size=5) for i in range(8)}
    pairs = [(f"en:w{i}", f"en:w{j}", float(rng.uniform(0, 10))) for i in range(8) for j in range(i + 1, 8)]
    task = SimTask(name="t", pairs=pairs)
    base = eval_similarity(vectors, task, LangMode.AWARE)
    scaled = {k: 7.5 * v for k, v in vectors.items()}
    rescored = eval_similarity(scaled, task, LangMode.AWARE)
    assert rescored.score == pytest.approx(base.score, abs=1e-12)


def test_aggregate_single_subtask_matches_eval_similarity():
    vectors = {"en:a": unit(1, 0), "de:b": unit(1, 0.3), "fr:c": unit(0, 1)}
    task = SimTask(name="t", pairs=[("en:a", "de:b", 3.0), ("en:a", "fr:c", 1.0), ("de:b", "fr:c", 2.0)])
    single = eval_similarity(vectors, task, LangMode.AWARE)
    pooled = eval_similarity(vectors, SimTask(name="all", pairs=task.pairs), LangMode.AWARE)
    assert pooled.score == pytest.approx(single.score)
    assert pooled.coverage == single.coverage


def test_aggregate_pools_pairs():
    vectors = {"en:a": unit(1, 0), "de:b": unit(1, 0.5), "en:c": unit(0, 1), "de:d": unit(0.2, 1)}
    t1 = SimTask(name="t1", pairs=[("en:a", "de:b", 4.0), ("en:a", "en:c", 1.0)])
    t2 = SimTask(name="t2", pairs=[("en:c", "de:d", 9.0), ("de:b", "de:d", 2.0)])
    pooled = eval_similarity(vectors, SimTask(name="all", pairs=t1.pairs + t2.pairs), LangMode.AWARE)
    model = []
    human = []
    for task in (t1, t2):
        for a, b, s in task.pairs:
            va, vb = vectors[a], vectors[b]
            model.append(float(va @ vb))
            human.append(s)
    assert pooled.score == pytest.approx(naive_spearman(model, human), abs=1e-12)
    assert pooled.n_total == 4


def test_aggregate_tolerates_uncovered_subtask():
    vectors = {"en:a": unit(1, 0), "de:b": unit(1, 0.5), "en:c": unit(0, 1)}
    good = SimTask(name="good", pairs=[("en:a", "de:b", 2.0), ("en:a", "en:c", 1.0), ("de:b", "en:c", 3.0)])
    empty = SimTask(name="empty", pairs=[("en:nope", "de:nada", 1.0)])
    pooled = eval_similarity(vectors, SimTask(name="all", pairs=good.pairs + empty.pairs), LangMode.AWARE)
    assert pooled.n_used == 3
    assert pooled.n_total == 4


def test_doc_repr():
    vectors = {"en:a": np.array([1.0, 0.0]), "en:b": np.array([0.0, 1.0])}
    assert doc_repr(vectors, "en", "zzz yyy", LangMode.AWARE) is None
    assert np.array_equal(doc_repr(vectors, "en", "a", LangMode.AWARE), [1.0, 0.0])
    assert np.allclose(doc_repr(vectors, "en", "a b", LangMode.AWARE), [0.5, 0.5])
    assert np.allclose(
        doc_repr(vectors, "en", "a b unknown", LangMode.AWARE),
        doc_repr(vectors, "en", "unknown b a", LangMode.AWARE),
    )


def separable_task():
    vectors = {
        "en:aa": np.array([1.0, 0.0]),
        "en:ab": np.array([0.9, 0.1]),
        "en:ba": np.array([0.0, 1.0]),
        "en:bb": np.array([0.1, 0.9]),
    }
    train_docs = [
        ("pos", "en", "aa ab"),
        ("pos", "en", "aa"),
        ("neg", "en", "ba bb"),
        ("neg", "en", "bb"),
    ]
    return vectors, ClassTask(name="toy", train_docs=train_docs, test_docs=list(train_docs))


def test_eval_classification_separable_train_equals_test():
    vectors, task = separable_task()
    result = eval_classification(vectors, task, LangMode.AWARE)
    assert result.score == 1.0
    assert result.coverage == 1.0
    assert result.token_coverage == 1.0


def test_eval_classification_all_test_uncovered():
    vectors, task = separable_task()
    task = ClassTask(
        name="t",
        train_docs=task.train_docs,
        test_docs=[("pos", "en", "zzz"), ("neg", "en", "qqq")],
    )
    with pytest.raises(EvalError, match="no covered test documents"):
        eval_classification(vectors, task, LangMode.AWARE)


def test_eval_classification_unknown_test_label():
    vectors, task = separable_task()
    bad = ClassTask(name="t", train_docs=task.train_docs, test_docs=[("other", "en", "aa")])
    with pytest.raises(EvalError, match="missing from train"):
        eval_classification(vectors, bad, LangMode.AWARE)


def test_eval_classification_three_class_matches_hand_enumeration():
    rng = np.random.default_rng(5)
    centers = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}
    vectors = {}
    train_docs = []
    for label, center in centers.items():
        for k in range(4):
            token = f"en:{label}{k}"
            vectors[token] = center + rng.normal(0, 0.05, size=3)
            train_docs.append((label, "en", f"{label}{k}"))
    test_docs = [("x", "en", "x0 x1"), ("y", "en", "y2"), ("z", "en", "z3 z1"),
                 ("x", "en", "x3"), ("y", "en", "y0 y1"), ("z", "en", "z2")]
    task = ClassTask(name="t3", train_docs=train_docs, test_docs=test_docs)
    result = eval_classification(vectors, task, LangMode.AWARE)

    # Oracle: train the same classifier on hand-assembled features, then
    # enumerate the decision on the 6 test documents explicitly.
    label_order = sorted(centers)
    train_x = []
    train_y = []
    for label, lang, text in train_docs:
        reps = [vectors[f"en:{tok}"] for tok in text.split()]
        train_x.append(np.mean(reps, axis=0))
        train_y.append(label_order.index(label))
    weights, biases, _ = train_softmax_regression(np.array(train_x), np.array(train_y), 3)
    correct = 0
    for label, lang, text in test_docs:
        rep = np.mean([vectors[f"en:{tok}"] for tok in text.split()], axis=0)
        predicted = label_order[int(np.argmax(weights @ rep + biases))]
        correct += predicted == label
    assert result.score == pytest.approx(correct / len(test_docs))
    assert result.n_used == 6


def test_eval_classification_beats_majority_baseline():
    vectors, task = separable_task()
    result = eval_classification(vectors, task, LangMode.AWARE)
    majority = max(
        sum(1 for d in task.test_docs if d[0] == label) for label in {d[0] for d in task.test_docs}
    ) / len(task.test_docs)
    assert result.score >= majority


def test_format_score_conventions():
    assert format_score(0.82) == ".82"
    assert format_score(-0.25) == "-.25"
    assert format_score(1.0) == "1.00"
    assert format_score(0.0) == ".00"
    assert format_score(-1.0) == "-1.00"


def test_format_cell():
    assert format_cell(ScoredResult(score=0.82, coverage=0.81, n_used=81, n_total=100)) == ".82 [.81]"
    assert format_cell(ScoredResult(score=1.0, coverage=1.0, n_used=5, n_total=5)) == "1.00 [1.00]"


def test_emit_report_text_and_csv():
    rows = [
        ReportRow(
            name="similarity",
            cells=[
                ("en+de", ScoredResult(score=0.82, coverage=0.81, n_used=81, n_total=100)),
                ("all", ScoredResult(score=-0.25, coverage=0.83, n_used=83, n_total=100)),
            ],
        )
    ]
    out = emit_report(rows)
    assert ".82 [.81]" in out.text
    assert "-.25 [.83]" in out.text
    assert "en+de" in out.text.splitlines()[0]
    assert out.csv.splitlines()[0] == "row,column,score,coverage,n_used,n_total,token_coverage"
    assert "similarity,en+de,0.82,0.81,81,100," in out.csv


def test_load_sim_task(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("en:dog\tde:hund\t9.2\nen:cat\tfr:chat\t8.1\n", encoding="utf-8")
    task = load_sim_task(path)
    assert task.name == "pairs"
    assert task.pairs[0] == ("en:dog", "de:hund", 9.2)
    bad = tmp_path / "bad.tsv"
    bad.write_text("en:dog\tde:hund\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad.tsv:1"):
        load_sim_task(bad)


def test_lexicon_retrieval_hand_built():
    vectors = {
        "en:hot": unit(1, 0, 0),
        "de:heiss": unit(0.95, 0.05, 0),
        "en:cold": unit(0, 1, 0),
        "de:kalt": unit(0.05, 0.95, 0),
    }
    pairs = [
        LexiconPair("en:hot", "de:heiss", "0"),
        LexiconPair("en:cold", "de:kalt", "1"),
    ]
    result = lexicon_retrieval(vectors, pairs, LangMode.AWARE)
    assert result.precision_at_1 == 1.0
    assert result.same_concept_mean > 0.99
    assert result.diff_concept_mean < 0.1
    assert result.n_words == 4

    # Flip one embedding so retrieval fails for that word.
    vectors["en:hot"] = unit(0, 0.9, 0.1)
    flipped = lexicon_retrieval(vectors, pairs, LangMode.AWARE)
    assert flipped.precision_at_1 < 1.0



@pytest.mark.parametrize("mode", [LangMode.AWARE, LangMode.UNAWARE])
def test_lexicon_retrieval_bare_word_has_no_language(mode):
    # A bare word's language is unknown, so it cannot tell crosslingual pairs
    # from same-language ones, in either mode.
    vectors = {"dog": unit(1, 0), "hund": unit(0.9, 0.1), "cat": unit(0, 1), "katze": unit(0.1, 0.9)}
    bare = [LexiconPair("dog", "hund", "0"), LexiconPair("cat", "katze", "1")]
    for retrieval in (lexicon_retrieval, lexicon_retrieval_loop):
        with pytest.raises(EvalError, match="^word 'dog' has no language tag$"):
            retrieval(vectors, bare, mode)
    if mode is LangMode.UNAWARE:
        tagged = [LexiconPair("en:dog", "de:hund", "0"), LexiconPair("en:cat", "de:katze", "1")]
        result = lexicon_retrieval(vectors, tagged, mode)
        assert result == lexicon_retrieval_loop(vectors, tagged, mode)
        assert result.precision_at_1 == 1.0 and result.n_words == 4


@pytest.mark.parametrize("mode", [LangMode.AWARE, LangMode.UNAWARE])
def test_lexicon_retrieval_invalid_language_tag(mode):
    # An invalid tag would otherwise count as a language of its own: "EN:c"
    # next to "en:a" would make their pair crosslingual.
    vectors = {"a": unit(1, 0), "b": unit(0.9, 0.1), "c": unit(0, 1), "d": unit(0.1, 0.9)}
    vectors.update({f"{lang}:{w}": vectors[w] for lang, w in (("en", "a"), ("de", "b"), ("en", "c"), ("de", "d"))})
    pairs = [LexiconPair("en:a", "de:b", "0"), LexiconPair("EN:c", "de:d", "1")]
    for retrieval in (lexicon_retrieval, lexicon_retrieval_loop):
        with pytest.raises(EvalError, match="^word 'EN:c' has an invalid language tag$"):
            retrieval(vectors, pairs, mode)


def test_lexicon_retrieval_ties_go_to_the_first_word():
    # en:hot is equally close to de:warm (listed first, concept 1) and to
    # de:heiss (its own concept): the first listed word wins, a miss.
    vectors = {"en:hot": unit(1, 0), "de:warm": unit(1, 0), "de:heiss": unit(1, 0), "en:mild": unit(0.9, 0.1)}
    pairs = [LexiconPair("en:mild", "de:warm", "1"), LexiconPair("en:hot", "de:heiss", "0")]
    result = lexicon_retrieval(vectors, pairs, LangMode.AWARE)
    assert result == lexicon_retrieval_loop(vectors, pairs, LangMode.AWARE)
    # en:mild: tie, de:warm first, hit. de:warm: en:hot is closer, miss.
    # en:hot: tie, de:warm first, miss. de:heiss: en:hot is closer, hit.
    assert result.precision_at_1 == 0.5


def test_lexicon_retrieval_matches_loop_oracle():
    rng = np.random.default_rng(31)
    for trial in range(30):
        langs = ["en", "de", "fr"][: int(rng.integers(2, 4))]
        concepts = int(rng.integers(2, 7))
        # Few distinct directions, so many similarities tie exactly.
        directions = rng.integers(-1, 2, size=(int(rng.integers(2, 6)), 3)).astype(np.float64)
        directions[np.all(directions == 0, axis=1)] = 1.0
        vectors = {}
        pairs = []
        for c in range(concepts):
            words = [f"{lang}:w{c}k{k}" for lang in langs for k in range(2)]
            for word in words:
                if rng.uniform() < 0.9:  # some words stay uncovered
                    vectors[word] = directions[rng.integers(len(directions))]
            for _ in range(3):
                w1, w2 = rng.choice(words, size=2, replace=False)
                if w1.split(":")[0] != w2.split(":")[0]:
                    pairs.append(LexiconPair(str(w1), str(w2), str(c)))
        want = lexicon_retrieval_loop(vectors, pairs, LangMode.AWARE)
        assert lexicon_retrieval(vectors, pairs, LangMode.AWARE) == want, trial


# Entries in {0, +-1} with 1 or 4 nonzeros have norm 1 or 2, so every unit
# vector, every cosine and every sum of a few cosines is exact in binary:
# any block size must then give the loop oracle's results bit for bit.
EXACT_DIRECTIONS = [*np.eye(4), *-np.eye(4), *map(np.array, itertools.product((-1.0, 1.0), repeat=4))]


def exact_hand_built():
    vectors = {
        "en:hot": np.array([1.0, 0, 0, 0]),
        "de:heiss": np.array([1.0, 1, 1, 1]),
        "en:cold": np.array([0, 1.0, 0, 0]),
        "de:kalt": np.array([-1.0, 1, -1, -1]),
    }
    return vectors, [LexiconPair("en:hot", "de:heiss", "0"), LexiconPair("en:cold", "de:kalt", "1")]


def exact_ties():
    # en:hot is as close to de:warm (listed first, concept 1) as to de:heiss
    # (its own concept), and en:mild as close to de:warm as to de:heiss.
    same = np.array([1.0, 0, 0, 0])
    vectors = {"en:hot": same, "de:warm": same, "de:heiss": same, "en:mild": np.array([1.0, 1, 1, 1])}
    return vectors, [LexiconPair("en:mild", "de:warm", "1"), LexiconPair("en:hot", "de:heiss", "0")]


def exact_random(seed):
    rng = np.random.default_rng(seed)
    langs = ["en", "de", "fr"][: int(rng.integers(2, 4))]
    directions = [EXACT_DIRECTIONS[k] for k in rng.choice(len(EXACT_DIRECTIONS), size=int(rng.integers(2, 6)))]
    vectors = {}
    pairs = []
    for c in range(int(rng.integers(2, 7))):
        words = [f"{lang}:w{c}k{k}" for lang in langs for k in range(2)]
        for word in words:
            if rng.uniform() < 0.9:  # some words stay uncovered
                vectors[word] = directions[rng.integers(len(directions))]
        for _ in range(3):
            w1, w2 = rng.choice(words, size=2, replace=False)
            if w1.split(":")[0] != w2.split(":")[0]:
                pairs.append(LexiconPair(str(w1), str(w2), str(c)))
    return vectors, pairs


def first_row_in_later_block():
    # Rows: en:a, en:a2, en:a3, de:a, en:b, en:b2. The last pair's first word
    # (de:a, row 3) lies in a later block than its second (en:a, row 0) for
    # blocks of 1, 2 and 3 rows. Rows 0-2 see only de:a across languages, of
    # their own concept, so the first block adds no different-concept cosine.
    e = np.eye(4)
    vectors = {"en:a": e[0], "en:a2": e[0], "en:a3": e[1], "de:a": e[0], "en:b": e[2], "en:b2": np.ones(4)}
    pairs = [
        LexiconPair("en:a", "en:a2", "0"),
        LexiconPair("en:a3", "de:a", "0"),
        LexiconPair("en:b", "en:b2", "1"),
        LexiconPair("de:a", "en:a", "0"),
    ]
    return vectors, pairs


def one_language():
    # No row of any block has a crosslingual word: degenerate, as for the loop.
    e = np.eye(4)
    return {"en:a": e[0], "en:b": e[1], "en:c": e[0]}, [LexiconPair("en:a", "en:b", "0"), LexiconPair("en:c", "en:a", "0")]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_lexicon_retrieval_blocked_matches_loop_oracle(monkeypatch, block):
    cases = [
        exact_hand_built(),
        exact_ties(),
        first_row_in_later_block(),
        one_language(),
        *(exact_random(seed) for seed in range(30)),
    ]
    want = []
    for vectors, pairs in cases:
        try:
            want.append(lexicon_retrieval_loop(vectors, pairs, LangMode.AWARE))
        except EvalError as exc:
            want.append(str(exc))
    assert want[0].precision_at_1 == 0.75 and want[1].precision_at_1 == 0.5
    assert want[2].n_pairs == 4 and want[3] == "not enough covered crosslingual pairs"
    monkeypatch.setattr(evaluation, "RETRIEVAL_BLOCK_ROWS", block)
    for k, ((vectors, pairs), expected) in enumerate(zip(cases, want)):
        try:
            got = lexicon_retrieval(vectors, pairs, LangMode.AWARE)
        except EvalError as exc:
            got = str(exc)
        assert got == expected, k


def test_lexicon_retrieval_blocks_agree_with_one_block_on_floats(monkeypatch):
    # Rounded cosines: the block-by-block sum and a block's matrix product
    # may move the two means in the last bits, nothing else.
    # Words w3c, w3c+1, w3c+2 (one per language) are noisy copies of concept c.
    rng = np.random.default_rng(8)
    protos = rng.standard_normal((233, 16))
    vectors = {f"l{k % 3}:w{k}": protos[k // 3] + rng.standard_normal(16) for k in range(699)}
    pairs = [LexiconPair(f"l{k % 3}:w{k}", f"l{(k + 1) % 3}:w{k + 1}", str(k // 3)) for k in range(699) if k % 3 != 2]
    blocked = lexicon_retrieval(vectors, pairs, LangMode.AWARE)
    monkeypatch.setattr(evaluation, "RETRIEVAL_BLOCK_ROWS", 699)
    whole = lexicon_retrieval(vectors, pairs, LangMode.AWARE)
    assert (blocked.precision_at_1, blocked.n_words, blocked.n_pairs) == (whole.precision_at_1, 699, 466)
    assert 0.3 < whole.precision_at_1 < 1.0
    assert blocked.same_concept_mean == pytest.approx(whole.same_concept_mean, rel=1e-12, abs=0)
    assert blocked.diff_concept_mean == pytest.approx(whole.diff_concept_mean, rel=1e-12, abs=0)


def test_lexicon_retrieval_memory_stays_below_the_full_matrix():
    # 3,000 words x 16 dims: the n x n float64 cosine matrix alone is 72 MB.
    n, dim = 3000, 16
    rng = np.random.default_rng(7)
    vectors = {f"l{k % 3}:w{k}": rng.standard_normal(dim) for k in range(n)}
    pairs = [
        LexiconPair(f"l{k % 3}:w{k}", f"l{(k + 1) % 3}:w{k + 1}", str(k // 3)) for k in range(n - 1) if k % 3 != 2
    ]
    tracemalloc.start()
    try:
        result = lexicon_retrieval(vectors, pairs, LangMode.AWARE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_words == n
    assert peak < n * n * 8


def test_load_lexicon(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("l0:l0w0k0\tl1:l1w0k0\t0\n", encoding="utf-8")
    pairs = load_lexicon(path)
    assert pairs[0].word1 == "l0:l0w0k0"
    assert pairs[0].concept == "0"
