"""Evaluation harness: word-pair similarity, document classification, reports.

Word-pair tasks are scored by the Spearman correlation between human ratings
and cosine similarities of the learned embeddings. For similarity and
retrieval alike, word_vector leaves a word uncovered when it has no single
token, the export lacks that token (hash buckets are never consulted here, as
a bucket row aliases unrelated words) or the token's vector has an L2 norm
below NORM_FLOOR. Every result carries a coverage: the fraction of the task
the embeddings could score.

Task words may be language-tagged ("en:dog") or bare ("dog"); bare words are
only meaningful in language-unaware embeddings, and never in a lexicon, whose
tags decide which word pairs are crosslingual. A pooled score over several
tasks is eval_similarity on one task holding all their pairs in task order.

An EvalError's message never names the task it comes from: the caller adds
that name once.

Classification reads every document, train or test, through one helper that
gives its token count and in-vocabulary rows. emit_report renders a report
once, as the lines of the aligned text table and of the CSV, whose records
the stdlib csv writer writes.

Lexicon retrieval (translation precision@1 and the same- versus
different-concept cosine means) compares every covered lexicon word with
every other. It walks the cosine matrix in blocks of RETRIEVAL_BLOCK_ROWS
rows, so its extra memory grows as O(block * n + n * d), not n^2: for
6,000 words of 64 dims the traced peak is 45 MB, while the full float64
matrix alone would take 288 MB.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from imglex.errors import DataError, EvalError
from imglex.fileio import parse_number, read_rows
from imglex.model import NORM_FLOOR
from imglex.textproc import LangMode, is_language_code, tokenize

Vectors = Mapping[str, np.ndarray]


@dataclass
class SimTask:
    """A word-pair similarity task: (word1, word2, human score) rows."""

    name: str
    pairs: list[tuple[str, str, float]]


@dataclass
class ClassTask:
    """A document classification task with train and test (label, lang, text) docs."""

    name: str
    train_docs: list[tuple[str, str, str]]
    test_docs: list[tuple[str, str, str]]


@dataclass
class ScoredResult:
    score: float  # Spearman rho or accuracy
    coverage: float  # fraction of the task scored (documents, for ClassTask)
    n_used: int
    n_total: int
    token_coverage: float | None = None  # ClassTask only: in-vocab test tokens


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties averaged (fractional ranks); -0.0 ties with 0.0."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (0.5 * (ends - counts + ends - 1) + 1.0)[group]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of tie-averaged ranks, in [-1, 1]."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("non-finite input")
    if xa.size < 2:
        raise EvalError("degenerate ranking")
    rx = _fractional_ranks(xa)
    ry = _fractional_ranks(ya)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    var_x = float(dx @ dx)
    var_y = float(dy @ dy)
    if var_x == 0.0 or var_y == 0.0:
        raise EvalError("degenerate ranking")
    return float(dx @ dy) / math.sqrt(var_x * var_y)


def task_token(word: str, mode: LangMode) -> str | None:
    """Normalize a task word to its vocabulary token, or None if unusable.

    "lang:surface" words are tokenized in the given mode; bare words require
    UNAWARE mode, and AWARE mode requires a valid language code. Words that
    do not normalize to exactly one token are unusable (multiword entries
    are out of scope for word-pair tasks).
    """
    if ":" in word:
        lang, surface = word.split(":", 1)
        if mode is LangMode.AWARE and not is_language_code(lang):
            raise EvalError(f"word {word!r} has an invalid language tag")
    else:
        if mode is LangMode.AWARE:
            raise EvalError(f"word {word!r} has no language tag (required in aware mode)")
        lang, surface = None, word
    tokens = tokenize(surface, lang, mode)
    return tokens[0] if len(tokens) == 1 else None


def word_vector(vectors: Vectors, word: str, mode: LangMode) -> tuple[np.ndarray, float] | None:
    """The export vector of a task word and its L2 norm, or None when the
    word is uncovered: task_token gives no single token, the export lacks
    that token, or the norm is below NORM_FLOOR."""
    token = task_token(word, mode)
    vec = None if token is None else vectors.get(token)
    norm = 0.0 if vec is None else np.linalg.norm(vec)
    return None if norm < NORM_FLOOR else (vec, norm)


def eval_similarity(vectors: Vectors, task: SimTask, mode: LangMode = LangMode.AWARE) -> ScoredResult:
    """Spearman between model cosines and human ratings over covered pairs (see word_vector)."""
    if not task.pairs:
        raise EvalError("no pairs")
    model_scores: list[float] = []
    human_scores: list[float] = []
    for word1, word2, human in task.pairs:
        first = word_vector(vectors, word1, mode)
        second = word_vector(vectors, word2, mode)
        if first is None or second is None:
            continue
        (v1, n1), (v2, n2) = first, second
        model_scores.append(float(v1 @ v2 / (n1 * n2)))
        human_scores.append(human)
    if len(model_scores) < 2:
        raise EvalError("fewer than 2 covered pairs")
    return ScoredResult(
        score=spearman(model_scores, human_scores),
        coverage=len(model_scores) / len(task.pairs),
        n_used=len(model_scores),
        n_total=len(task.pairs),
    )


def _doc_rows(vectors: Vectors, lang: str | None, text: str, mode: LangMode) -> tuple[int, list[np.ndarray]]:
    """The document's token count and the export rows of its in-vocabulary tokens."""
    tokens = tokenize(text, lang, mode)
    return len(tokens), [vectors[tok] for tok in tokens if tok in vectors]


def doc_repr(vectors: Vectors, lang: str | None, text: str, mode: LangMode) -> np.ndarray | None:
    """Average embedding of the document's in-vocabulary tokens.

    Returns None when no token is covered.
    """
    _, rows = _doc_rows(vectors, lang, text, mode)
    if not rows:
        return None
    return np.mean(rows, axis=0)


SOFTMAX_MAX_ITER = 1000
SOFTMAX_TOL = 1e-6


def train_softmax_regression(
    features: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Multinomial logistic regression by full-batch gradient descent.

    Runs until the loss improves by less than SOFTMAX_TOL or for
    SOFTMAX_MAX_ITER steps, with backtracking step halving so the loss never
    increases. Returns (weights (C, D), biases (C,), final loss).
    """
    n, dim = features.shape
    weights = np.zeros((num_classes, dim))
    biases = np.zeros(num_classes)

    def loss_and_grad(w: np.ndarray, b: np.ndarray):
        logits = features @ w.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-log_probs[np.arange(n), labels].mean())
        probs = np.exp(log_probs)
        probs[np.arange(n), labels] -= 1.0
        probs /= n
        return loss, probs.T @ features, probs.sum(axis=0)

    loss, grad_w, grad_b = loss_and_grad(weights, biases)
    step = 10.0
    for _ in range(SOFTMAX_MAX_ITER):
        while step > 1e-12:
            cand_w = weights - step * grad_w
            cand_b = biases - step * grad_b
            cand_loss, cand_gw, cand_gb = loss_and_grad(cand_w, cand_b)
            if cand_loss <= loss:
                break
            step *= 0.5
        else:
            break
        improvement = loss - cand_loss
        weights, biases = cand_w, cand_b
        loss, grad_w, grad_b = cand_loss, cand_gw, cand_gb
        step *= 1.2
        if improvement < SOFTMAX_TOL:
            break
    return weights, biases, loss


def eval_classification(vectors: Vectors, task: ClassTask, mode: LangMode = LangMode.AWARE) -> ScoredResult:
    """Accuracy of a softmax classifier over averaged embeddings.

    Embeddings are frozen; the classifier sees only covered documents.
    Coverage is reported at the document level (fraction of test docs with at
    least one covered token) with token-level coverage alongside.
    """
    label_set = sorted({label for label, _, _ in task.train_docs})
    label_index = {label: i for i, label in enumerate(label_set)}
    for label, _, _ in task.test_docs:
        if label not in label_index:
            raise EvalError(f"test label {label!r} missing from train set")

    train_x: list[np.ndarray] = []
    train_y: list[int] = []
    for label, lang, text in task.train_docs:
        rep = doc_repr(vectors, lang, text, mode)
        if rep is not None:
            train_x.append(rep)
            train_y.append(label_index[label])
    if not train_x:
        raise EvalError("no covered training documents")
    if len(set(train_y)) < 2:
        raise EvalError("fewer than 2 labels among covered training documents")
    weights, biases, _ = train_softmax_regression(np.asarray(train_x), np.asarray(train_y), len(label_set))

    covered = 0
    correct = 0
    tokens_total = 0
    tokens_in_vocab = 0
    for label, lang, text in task.test_docs:
        num_tokens, rows = _doc_rows(vectors, lang, text, mode)
        tokens_total += num_tokens
        tokens_in_vocab += len(rows)
        if not rows:
            continue
        covered += 1
        predicted = int(np.argmax(weights @ np.mean(rows, axis=0) + biases))
        if predicted == label_index[label]:
            correct += 1
    if covered == 0:
        raise EvalError("no covered test documents")
    return ScoredResult(
        score=correct / covered,
        coverage=covered / len(task.test_docs),
        n_used=covered,
        n_total=len(task.test_docs),
        token_coverage=(tokens_in_vocab / tokens_total) if tokens_total else 0.0,
    )


def load_sim_task(path: str | Path) -> SimTask:
    """Load "word1<TAB>word2<TAB>score" rows; name is the file stem."""
    path = Path(path)
    rows = read_rows(path, "similarity task", ncols=3)
    pairs = [(word1, word2, parse_number(score, path, lineno, "score")) for lineno, (word1, word2, score) in rows]
    if not pairs:
        raise DataError(f"{path}: empty task file")
    return SimTask(name=path.stem, pairs=pairs)


def load_class_task(train_path: str | Path, test_path: str | Path) -> ClassTask:
    """Load train/test "label<TAB>lang<TAB>text" document files."""

    def read_docs(path: str | Path) -> list[tuple[str, str, str]]:
        docs = []
        for lineno, (label, lang, text) in read_rows(path, "classification file", ncols=3):
            if not is_language_code(lang):
                raise DataError(f"{path}:{lineno}: invalid language code {lang!r}")
            docs.append((label, lang, text))
        if not docs:
            raise DataError(f"{path}: empty document file")
        return docs

    return ClassTask(name="classification", train_docs=read_docs(train_path), test_docs=read_docs(test_path))


# --- Lexicon-based diagnostics (synthetic ground truth) ---------------------


@dataclass
class LexiconPair:
    word1: str  # "lang:word"
    word2: str
    concept: str


def load_lexicon(path: str | Path) -> list[LexiconPair]:
    """Load "lang1:word1<TAB>lang2:word2<TAB>concept" ground-truth rows."""
    return [LexiconPair(*fields) for _, fields in read_rows(path, "lexicon", ncols=3)]


# Rows of the cosine matrix lexicon_retrieval holds at once.
RETRIEVAL_BLOCK_ROWS = 256


@dataclass
class RetrievalResult:
    same_concept_mean: float  # mean cosine over listed crosslingual pairs
    diff_concept_mean: float  # mean cosine over crosslingual pairs of different concepts
    precision_at_1: float  # nearest crosslingual word is same-concept
    n_words: int
    n_pairs: int


def lexicon_retrieval(vectors: Vectors, pairs: Sequence[LexiconPair], mode: LangMode) -> RetrievalResult:
    """Concept-separation and translation-retrieval diagnostics.

    Every lexicon word carries a valid language tag, in either mode (a bare
    word or an invalid tag such as ``EN:`` raises EvalError), and its
    concept; word_vector decides which words are covered. precision@1: for
    each covered word, the nearest covered word of another language (by
    cosine) must share its concept; a tie goes to the word listed first.

    The n x n cosine matrix is walked in blocks of RETRIEVAL_BLOCK_ROWS rows
    and never held whole, so the extra memory is O(block * n + n * d). Each
    block gives the listed pairs whose first word it holds, the sum and count
    of its different-concept crosslingual cosines and its rows' nearest
    crosslingual words. With n <= RETRIEVAL_BLOCK_ROWS the walk is one block
    and the results are those of the full matrix; with more blocks the two
    means can differ from it in the last bits (the sum is taken block by
    block, and a block's matrix product may round differently).
    """
    info: dict[str, tuple[str, str]] = {}  # tagged word -> (lang, concept)
    for pair in pairs:
        for word in (pair.word1, pair.word2):
            lang, tagged, _ = word.partition(":")
            if not tagged:
                raise EvalError(f"word {word!r} has no language tag")
            if not is_language_code(lang):
                raise EvalError(f"word {word!r} has an invalid language tag")
            previous = info.get(word)
            if previous is not None and previous[1] != pair.concept:
                raise EvalError(f"word {word!r} listed under two concepts")
            info[word] = (lang, pair.concept)
    words = []
    rows = []
    for word, (lang, concept) in info.items():
        found = word_vector(vectors, word, mode)
        if found is None:
            continue
        vec, norm = found
        words.append((word, lang, concept))
        rows.append(vec / norm)
    if len(words) < 2:
        raise EvalError("fewer than 2 covered words")
    unit = np.asarray(rows)

    index = {word: i for i, (word, _, _) in enumerate(words)}
    covered_pairs = [(index[p.word1], index[p.word2]) for p in pairs if p.word1 in index and p.word2 in index]
    first, second = np.array(covered_pairs, dtype=np.intp).reshape(-1, 2).T
    same = np.empty(first.size)  # in pair order, whichever block fills each entry
    langs = np.unique([lang for _, lang, _ in words], return_inverse=True)[1]
    concepts = np.unique([concept for _, _, concept in words], return_inverse=True)[1]
    diff_sum = 0.0
    diff_count = 0
    hits = 0
    considered = 0
    for start in range(0, len(words), RETRIEVAL_BLOCK_ROWS):
        stop = min(start + RETRIEVAL_BLOCK_ROWS, len(words))
        sims = unit[start:stop] @ unit.T
        listed = np.flatnonzero((first >= start) & (first < stop))
        same[listed] = sims[first[listed] - start, second[listed]]
        cross = langs[start:stop, None] != langs[None, :]  # also excludes each word itself
        same_concept = concepts[start:stop, None] == concepts[None, :]
        diff = sims[cross & ~same_concept]
        diff_sum += diff.sum()
        diff_count += diff.size
        # argmax takes the first maximum: the nearest crosslingual word, ties
        # to the lowest index.
        sims[~cross] = -np.inf
        nearest = sims.argmax(axis=1)
        has_cross = cross.any(axis=1)
        considered += int(np.count_nonzero(has_cross))
        hits += int(np.count_nonzero(has_cross & same_concept[np.arange(stop - start), nearest]))
    if same.size == 0 or diff_count == 0 or considered == 0:
        raise EvalError("not enough covered crosslingual pairs")
    return RetrievalResult(
        same_concept_mean=float(np.mean(same)),
        diff_concept_mean=float(diff_sum / diff_count),
        precision_at_1=hits / considered,
        n_words=len(words),
        n_pairs=int(same.size),
    )


# --- Report rendering -------------------------------------------------------


@dataclass
class ReportRow:
    name: str
    cells: list[tuple[str, ScoredResult]]  # (column name, result)


def format_score(value: float) -> str:
    """Two decimals with the leading zero stripped: .82, -.25, 1.00."""
    text = f"{value:.2f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def format_cell(result: ScoredResult) -> str:
    """Render "score [coverage]", e.g. ".82 [.81]"."""
    return f"{format_score(result.score)} [{format_score(result.coverage)}]"


def emit_report(rows: Sequence[ReportRow]) -> tuple[list[str], list[str]]:
    """Render rows as the lines, without terminators, of an aligned text table
    and of a CSV with one record per cell (a name with a comma is quoted)."""
    columns: list[str] = []
    for row in rows:
        for name, _ in row.cells:
            if name not in columns:
                columns.append(name)
    header = [""] + columns
    table: list[list[str]] = [header]
    for row in rows:
        by_name = dict(row.cells)
        table.append([row.name] + [format_cell(by_name[c]) if c in by_name else "-" for c in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    text_lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip() for line in table]

    # writerow returns what the file's write returns: here the record's line.
    writer = csv.writer(SimpleNamespace(write=lambda line: line.removesuffix("\n")), lineterminator="\n")
    csv_lines = [writer.writerow(["row", "column", "score", "coverage", "n_used", "n_total", "token_coverage"])]
    for row in rows:
        for name, result in row.cells:
            # The writer writes a float as str(), which is its repr, and None as an empty field.
            fields = [row.name, name, result.score, result.coverage, result.n_used, result.n_total, result.token_coverage]
            csv_lines.append(writer.writerow(fields))
    return text_lines, csv_lines
