"""Genetic-algorithm baseline over binary candidate masks.

Each chromosome is a bit vector over the kept candidate pool; its fitness is
the training cost of a model fitted on the set bits. A population is one
boolean matrix, a row per chromosome. Each generation applies elitism,
tournament selection (size 2), uniform crossover on a fraction of the
offspring, per-bit mutation and a repair step that enforces
``1 <= popcount <= max_states`` to the whole matrix, then scores the whole
matrix with one batch query of the evaluator, which fits each distinct mask
it has not cached once, in stacks. A restart stops early once the best cost
has stalled; the best result across restarts wins.

Randomness is drawn from per-restart generators pre-split from one seed, so
results are reproducible and independent of how restarts are scheduled. A
generation draws, in order: the ``(2, offspring, 2)`` tournament indices, the
crossover bits of the first ``round(crossover_fraction * offspring)`` children
(the rest copy parent 1), the mutation bits, then ``repair``'s keys for the
children over the cap and its bit for each empty child.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .datamodel import TimeSeriesDataset
from .errors import DatasetError
from .selection import (
    SelectionResult,
    SubsetEvaluator,
    finish_winner,
    run_restarts,
    subset_key,
)


@dataclass(frozen=True)
class GAConfig:
    """GA hyperparameters; defaults follow common binary-GA practice.

    ``None`` values are worked out when a restart starts: the elite count is
    5% of the population, the mutation rate ``1/genome`` and the generation
    cap ``100 * genome``. Truncation and cost scales come from the
    ``SubsetEvaluator`` the search is given.
    """

    max_states: int
    population_size: int = 480
    elite_count: int | None = None
    crossover_fraction: float = 0.8
    max_generations: int | None = None
    stall_generations: int = 50
    stall_tolerance: float = 1e-6
    mutation_rate: float | None = None
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.elite_count is not None and not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be smaller than the population")
        if not 0.0 <= self.crossover_fraction <= 1.0:
            raise ValueError("crossover_fraction must be in [0, 1]")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.max_generations is not None and self.max_generations < 0:
            raise ValueError("max_generations must not be negative")
        if self.stall_generations < 1:
            raise ValueError("stall_generations must be at least 1")
        if not self.stall_tolerance >= 0:  # below 0 no restart stalls; NaN stalls every one
            raise ValueError(f"stall_tolerance must not be negative, got {self.stall_tolerance}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


def repair(masks: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Enforce ``1 <= popcount <= cap`` on each row of ``masks`` (or on one 1-D
    mask): a row over the cap keeps ``cap`` of its set bits, chosen uniformly,
    and an empty row gets one uniformly chosen bit."""
    masks = np.array(masks, dtype=bool)
    rows = masks.reshape(-1, masks.shape[-1])
    count = rows.sum(axis=1)
    over = count > cap
    if over.any():
        keys = np.where(rows[over], rng.random((int(over.sum()), rows.shape[1])), np.inf)
        kept = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(kept, np.argsort(keys, axis=1)[:, :cap], True, axis=1)  # cap lowest keys
        rows[over] = kept
    empty = np.flatnonzero(count == 0)
    rows[empty, rng.integers(0, rows.shape[1], size=empty.size)] = True
    return masks


def _rank(population: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """Row order under ``subset_key``: cost, then popcount, then lexicographic
    indices. Among rows of equal popcount the lexicographically smaller index
    tuple is the larger bit row read with bit 0 most significant, so the bits
    sort descending. ``lexsort`` is stable: equal keys keep their row order."""
    bits = np.invert(np.packbits(population, axis=1))
    return np.lexsort((*bits.T[::-1], population.sum(axis=1), fitness))


def _fitness(population: np.ndarray, pool: np.ndarray, evaluator: SubsetEvaluator) -> np.ndarray:
    """Cost of each row, a bit row over the sorted pool, from one batch
    query; each distinct subset not in the cache is fitted once, from the
    pool's reduction if the pool has one."""
    return evaluator.costs(population, tuple(pool.tolist()))


def _run_restart(
    restart: int,
    pool: tuple[int, ...],
    cfg: GAConfig,
    evaluator: SubsetEvaluator,
) -> tuple[tuple[float, int, tuple[int, ...]], list[float]]:
    """One seeded GA run; returns the ``subset_key`` of its best subset and the
    best cost after each generation, the initial population's first."""
    genome, size = len(pool), cfg.population_size
    pool_arr = np.array(pool)
    n_elite = cfg.elite_count if cfg.elite_count is not None else max(1, round(0.05 * size))
    mutation_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / genome
    max_generations = cfg.max_generations if cfg.max_generations is not None else 100 * genome
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)[restart])
    n_offspring = size - n_elite
    n_cross = round(cfg.crossover_fraction * n_offspring)

    def score(population: np.ndarray) -> tuple[np.ndarray, tuple[float, int, tuple[int, ...]]]:
        """Rank order of the rows and the ``subset_key`` of the best one."""
        fitness = _fitness(population, pool_arr, evaluator)
        order = _rank(population, fitness)
        best = order[0]
        return order, subset_key(float(fitness[best]), tuple(pool_arr[population[best]].tolist()))

    p_init = min(0.5, cfg.max_states / genome)
    population = repair(rng.random((size, genome)) < p_init, cfg.max_states, rng)
    order, best_key = score(population)
    best_trace = [best_key[0]]

    for gen in range(1, max_generations + 1):
        rank = np.empty_like(order)
        rank[order] = np.arange(size)
        contest = rng.integers(0, size, size=(2, n_offspring, 2))
        first_wins = rank[contest[..., 0]] <= rank[contest[..., 1]]
        parents = population[np.where(first_wins, contest[..., 0], contest[..., 1])]
        take_first = np.ones((n_offspring, genome), dtype=bool)
        take_first[:n_cross] = rng.random((n_cross, genome)) < 0.5
        children = np.where(take_first, parents[0], parents[1])
        children ^= rng.random((n_offspring, genome)) < mutation_rate
        population = np.vstack([population[order[:n_elite]], repair(children, cfg.max_states, rng)])
        order, gen_best = score(population)

        best_key = min(best_key, gen_best)
        best_trace.append(best_key[0])
        # a trace stuck at inf also stalls: inf - inf is nan, which is not >= tol
        if gen >= cfg.stall_generations and not (
            best_trace[gen - cfg.stall_generations] - best_trace[gen] >= cfg.stall_tolerance
        ):
            break

    return best_key, best_trace


def ga_select(
    evaluator: SubsetEvaluator,
    test: TimeSeriesDataset,
    pool: Sequence[int],
    cfg: GAConfig,
    workers: int = 1,
) -> SelectionResult:
    """Best-of-restarts GA search over the kept candidate pool.

    Restarts are independent and may run in parallel. Each generation of a
    restart queries ``evaluator`` once, for its whole population; a mask's
    cost, cached or not, is the one fitted from the reduction of
    ``pool``, or from its own snapshots if ``pool`` is too wide to be
    reduced. Restarts run in workers inherit the evaluator as it stood when
    the workers started, the pool's reduction included, and what they fit
    stays in the workers. So the result is the same for any worker count and
    whatever searches ran on ``evaluator`` before.
    """
    pool = tuple(sorted(set(pool)))
    if not pool:
        raise DatasetError("candidate pool is empty")
    fn = partial(_run_restart, pool=pool, cfg=cfg)
    runs = run_restarts(fn, cfg.restarts, workers, evaluator=evaluator, pool=pool)
    best, trace = min(runs, key=lambda run: run[0])
    restart_js = sorted(key[0] for key, _ in runs)
    mid = len(restart_js) // 2  # the median as statistics.median takes it, without its import
    diagnostics = {
        "restart_best": [
            {"indices": list(key[2]), "J": key[0], "generations": len(t) - 1} for key, t in runs
        ],
        "j_restart_best": restart_js[0],
        "j_restart_median": (
            restart_js[mid] if len(restart_js) % 2 else (restart_js[mid - 1] + restart_js[mid]) / 2
        ),
        "trace": trace,
    }
    return finish_winner(evaluator, test, best, "ga", diagnostics)
