"""Evaluation harness: word-pair similarity, document classification, reports.

Word-pair tasks are scored by the Spearman correlation between human ratings
and cosine similarities of the learned embeddings. Out-of-vocabulary words
are treated as uncovered (hash buckets are never consulted here, since a
bucket row aliases unrelated words), and every result carries a coverage:
the fraction of the task the embeddings could score.

Task words may be language-tagged ("en:dog") or bare ("dog"); bare words are
only meaningful in language-unaware embeddings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from imglex.errors import DataError, EvalError
from imglex.fileio import read_rows
from imglex.model import cosine
from imglex.textproc import LangMode, tokenize

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
    """Ranks 1..n with ties averaged (fractional ranks)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of tie-averaged ranks, in [-1, 1]."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
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
    UNAWARE mode. Words that do not normalize to exactly one token are
    unusable (multiword entries are out of scope for word-pair tasks).
    """
    if ":" in word:
        lang, surface = word.split(":", 1)
    else:
        if mode is LangMode.AWARE:
            raise EvalError(f"word {word!r} has no language tag (required in aware mode)")
        lang, surface = None, word
    tokens = tokenize(surface, lang, mode)
    return tokens[0] if len(tokens) == 1 else None


def _covered_pair_scores(vectors: Vectors, task: SimTask, mode: LangMode) -> tuple[list[float], list[float]]:
    model_scores: list[float] = []
    human_scores: list[float] = []
    for word1, word2, human in task.pairs:
        t1 = task_token(word1, mode)
        t2 = task_token(word2, mode)
        if t1 is None or t2 is None:
            continue
        v1 = vectors.get(t1)
        v2 = vectors.get(t2)
        if v1 is None or v2 is None:
            continue
        model_scores.append(cosine(v1, v2))
        human_scores.append(human)
    return model_scores, human_scores


def eval_similarity(vectors: Vectors, task: SimTask, mode: LangMode = LangMode.AWARE) -> ScoredResult:
    """Spearman between model cosines and human ratings over covered pairs."""
    if not task.pairs:
        raise EvalError(f"task {task.name}: no pairs")
    model_scores, human_scores = _covered_pair_scores(vectors, task, mode)
    if len(model_scores) < 2:
        raise EvalError(f"task {task.name}: fewer than 2 covered pairs")
    return ScoredResult(
        score=spearman(model_scores, human_scores),
        coverage=len(model_scores) / len(task.pairs),
        n_used=len(model_scores),
        n_total=len(task.pairs),
    )


def eval_similarity_aggregate(
    vectors: Vectors, subtasks: Sequence[SimTask], mode: LangMode = LangMode.AWARE
) -> ScoredResult:
    """Pool covered pairs from all subtasks, then score once.

    A subtask with zero covered pairs contributes nothing but does not fail
    the aggregate.
    """
    if not subtasks:
        raise EvalError("aggregate needs at least one subtask")
    model_scores: list[float] = []
    human_scores: list[float] = []
    total = 0
    for task in subtasks:
        m, h = _covered_pair_scores(vectors, task, mode)
        model_scores.extend(m)
        human_scores.extend(h)
        total += len(task.pairs)
    if len(model_scores) < 2:
        raise EvalError("aggregate: fewer than 2 covered pairs")
    return ScoredResult(
        score=spearman(model_scores, human_scores),
        coverage=len(model_scores) / total,
        n_used=len(model_scores),
        n_total=total,
    )


def doc_repr(vectors: Vectors, lang: str | None, text: str, mode: LangMode) -> np.ndarray | None:
    """Average embedding of the document's in-vocabulary tokens.

    Returns None when no token is covered.
    """
    rows = [vectors[tok] for tok in tokenize(text, lang, mode) if tok in vectors]
    if not rows:
        return None
    return np.mean(rows, axis=0)


def train_softmax_regression(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Multinomial logistic regression by full-batch gradient descent.

    Runs until the loss improves by less than ``tol`` or ``max_iter`` steps,
    with backtracking step halving so the loss never increases. Returns
    (weights (C, D), biases (C,), final loss).
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
    for _ in range(max_iter):
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
        if improvement < tol:
            break
    return weights, biases, loss


def eval_classification(
    vectors: Vectors,
    task: ClassTask,
    mode: LangMode = LangMode.AWARE,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> ScoredResult:
    """Accuracy of a softmax classifier over averaged embeddings.

    Embeddings are frozen; the classifier sees only covered documents.
    Coverage is reported at the document level (fraction of test docs with at
    least one covered token) with token-level coverage alongside.
    """
    label_set = sorted({label for label, _, _ in task.train_docs})
    label_index = {label: i for i, label in enumerate(label_set)}
    for label, _, _ in task.test_docs:
        if label not in label_index:
            raise EvalError(f"task {task.name}: test label {label!r} missing from train set")

    train_x: list[np.ndarray] = []
    train_y: list[int] = []
    for label, lang, text in task.train_docs:
        rep = doc_repr(vectors, lang, text, mode)
        if rep is not None:
            train_x.append(rep)
            train_y.append(label_index[label])
    if not train_x:
        raise EvalError(f"task {task.name}: no covered training documents")
    if len(set(train_y)) < 2:
        raise EvalError(f"task {task.name}: fewer than 2 labels among covered training documents")
    weights, biases, _ = train_softmax_regression(
        np.asarray(train_x), np.asarray(train_y), len(label_set), max_iter=max_iter, tol=tol
    )

    covered = 0
    correct = 0
    tokens_total = 0
    tokens_in_vocab = 0
    for label, lang, text in task.test_docs:
        tokens = tokenize(text, lang, mode)
        tokens_total += len(tokens)
        tokens_in_vocab += sum(1 for tok in tokens if tok in vectors)
        rep = doc_repr(vectors, lang, text, mode)
        if rep is None:
            continue
        covered += 1
        predicted = int(np.argmax(weights @ rep + biases))
        if predicted == label_index[label]:
            correct += 1
    if covered == 0:
        raise EvalError(f"task {task.name}: no covered test documents")
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
    pairs: list[tuple[str, str, float]] = []
    for lineno, (word1, word2, raw_score) in read_rows(path, "similarity task", ncols=3):
        try:
            score = float(raw_score)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric score {raw_score!r}") from None
        pairs.append((word1, word2, score))
    if not pairs:
        raise DataError(f"{path}: empty task file")
    return SimTask(name=path.stem, pairs=pairs)


def load_class_task(train_path: str | Path, test_path: str | Path, name: str = "classification") -> ClassTask:
    """Load train/test "label<TAB>lang<TAB>text" document files."""

    def read_docs(path: str | Path) -> list[tuple[str, str, str]]:
        docs = [(label, lang, text) for _, (label, lang, text) in read_rows(path, "classification file", ncols=3)]
        if not docs:
            raise DataError(f"{path}: empty document file")
        return docs

    return ClassTask(name=name, train_docs=read_docs(train_path), test_docs=read_docs(test_path))


# --- Lexicon-based diagnostics (synthetic ground truth) ---------------------


@dataclass
class LexiconPair:
    word1: str  # "lang:word"
    word2: str
    concept: str


def load_lexicon(path: str | Path) -> list[LexiconPair]:
    """Load "lang1:word1<TAB>lang2:word2<TAB>concept" ground-truth rows."""
    return [LexiconPair(*fields) for _, fields in read_rows(path, "lexicon", ncols=3)]


@dataclass
class RetrievalResult:
    same_concept_mean: float  # mean cosine over listed crosslingual pairs
    diff_concept_mean: float  # mean cosine over crosslingual pairs of different concepts
    precision_at_1: float  # nearest crosslingual word is same-concept
    n_words: int
    n_pairs: int


def lexicon_retrieval(vectors: Vectors, pairs: Sequence[LexiconPair], mode: LangMode) -> RetrievalResult:
    """Concept-separation and translation-retrieval diagnostics.

    Every lexicon word carries its language tag and concept. precision@1: for
    each covered word, the nearest covered word of another language (by
    cosine) must share its concept.
    """
    info: dict[str, tuple[str, str]] = {}  # tagged word -> (lang, concept)
    for pair in pairs:
        for word in (pair.word1, pair.word2):
            lang = word.split(":", 1)[0]
            previous = info.get(word)
            if previous is not None and previous[1] != pair.concept:
                raise EvalError(f"lexicon word {word!r} listed under two concepts")
            info[word] = (lang, pair.concept)
    words = []
    rows = []
    for word, (lang, concept) in info.items():
        token = task_token(word, mode)
        if token is None:
            continue
        vec = vectors.get(token)
        if vec is None:
            continue
        norm = np.linalg.norm(vec)
        if norm <= 0:
            continue
        words.append((word, lang, concept))
        rows.append(vec / norm)
    if len(words) < 2:
        raise EvalError("lexicon: fewer than 2 covered words")
    unit = np.asarray(rows)
    sims = unit @ unit.T

    index = {word: i for i, (word, _, _) in enumerate(words)}
    same: list[float] = []
    for pair in pairs:
        i = index.get(pair.word1)
        j = index.get(pair.word2)
        if i is not None and j is not None:
            same.append(float(sims[i, j]))

    langs = np.unique([lang for _, lang, _ in words], return_inverse=True)[1]
    concepts = np.unique([concept for _, _, concept in words], return_inverse=True)[1]
    cross = langs[:, None] != langs[None, :]  # also excludes each word itself
    same_concept = concepts[:, None] == concepts[None, :]
    diff = sims[cross & ~same_concept]
    # argmax takes the first maximum: the nearest crosslingual word, ties to
    # the lowest index.
    nearest = np.where(cross, sims, -np.inf).argmax(axis=1)
    has_cross = cross.any(axis=1)
    considered = int(np.count_nonzero(has_cross))
    hits = int(np.count_nonzero(has_cross & same_concept[np.arange(len(words)), nearest]))
    if not same or diff.size == 0 or considered == 0:
        raise EvalError("lexicon: not enough covered crosslingual pairs")
    return RetrievalResult(
        same_concept_mean=float(np.mean(same)),
        diff_concept_mean=float(np.mean(diff)),
        precision_at_1=hits / considered,
        n_words=len(words),
        n_pairs=len(same),
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


@dataclass
class ReportOutput:
    text: str
    csv: str


def emit_report(rows: Sequence[ReportRow]) -> ReportOutput:
    """Render rows as an aligned text table plus machine-readable CSV."""
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

    csv_lines = ["row,column,score,coverage,n_used,n_total,token_coverage"]
    for row in rows:
        for name, result in row.cells:
            token_cov = "" if result.token_coverage is None else repr(result.token_coverage)
            csv_lines.append(
                f"{row.name},{name},{result.score!r},{result.coverage!r},"
                f"{result.n_used},{result.n_total},{token_cov}"
            )
    return ReportOutput(text="\n".join(text_lines) + "\n", csv="\n".join(csv_lines) + "\n")
