"""Genetic-algorithm baseline over binary candidate masks.

Each chromosome is a bit vector over the kept candidate pool; its fitness is
the training cost of a model fitted on the set bits. The population evolves
by elitism, tournament selection (size 2), uniform crossover on a fraction of
the offspring, per-bit mutation, and a repair step that enforces
``1 <= popcount <= max_states``. A restart stops early once the best cost has
stalled; the best result across restarts wins.

Randomness is drawn from per-restart generators pre-split from one seed, so
results are reproducible and independent of how restarts are scheduled.
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

    ``None`` values are resolved against the genome length when the search
    starts: elite count is 5% of the population, mutation rate is
    ``1/genome`` and the generation cap is ``100 * genome``. Truncation and
    cost scales come from the ``SubsetEvaluator`` the search is given.
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
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")

    def resolve(self, genome: int) -> "_ResolvedGA":
        return _ResolvedGA(
            elite_count=(
                self.elite_count
                if self.elite_count is not None
                else max(1, round(0.05 * self.population_size))
            ),
            mutation_rate=(
                self.mutation_rate if self.mutation_rate is not None else 1.0 / genome
            ),
            max_generations=(
                self.max_generations if self.max_generations is not None else 100 * genome
            ),
        )


@dataclass(frozen=True)
class _ResolvedGA:
    elite_count: int
    mutation_rate: float
    max_generations: int


def repair(mask: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Enforce ``1 <= popcount <= cap`` by flipping uniformly chosen bits."""
    mask = np.asarray(mask, dtype=bool).copy()
    count = int(mask.sum())
    if count > cap:
        set_bits = np.flatnonzero(mask)
        clear = rng.choice(set_bits, size=count - cap, replace=False)
        mask[clear] = False
    elif count == 0:
        mask[rng.integers(0, mask.shape[0])] = True
    return mask


def _mask_to_subset(mask: np.ndarray, pool: Sequence[int]) -> tuple[int, ...]:
    return tuple(pool[i] for i in np.flatnonzero(mask))


def _rank_keys(
    masks: np.ndarray, fitness: np.ndarray, pool: Sequence[int]
) -> list[tuple[float, int, tuple[int, ...]]]:
    return [
        subset_key(fitness[i], _mask_to_subset(masks[i], pool))
        for i in range(masks.shape[0])
    ]


def _run_restart(
    restart: int,
    pool: tuple[int, ...],
    cfg: GAConfig,
    evaluator: SubsetEvaluator,
) -> dict:
    """One seeded GA run; returns its best mask, cost, and trace."""
    genome = len(pool)
    resolved = cfg.resolve(genome)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)[restart])

    p_init = min(0.5, cfg.max_states / genome)
    population = rng.random((cfg.population_size, genome)) < p_init
    population = np.stack([repair(ind, cfg.max_states, rng) for ind in population])

    def evaluate_all(pop: np.ndarray) -> np.ndarray:
        return np.array([evaluator.evaluate(_mask_to_subset(ind, pool)) for ind in pop])

    fitness = evaluate_all(population)
    best_trace: list[float] = []
    best_key = min(_rank_keys(population, fitness, pool))
    best_trace.append(best_key[0])

    n_offspring = cfg.population_size - resolved.elite_count
    n_cross = round(cfg.crossover_fraction * n_offspring)
    generations = 0
    for gen in range(1, resolved.max_generations + 1):
        generations = gen
        keys = _rank_keys(population, fitness, pool)
        order = sorted(range(cfg.population_size), key=lambda i: keys[i])
        elites = population[order[: resolved.elite_count]].copy()

        def tournament() -> np.ndarray:
            i, j = rng.integers(0, cfg.population_size, size=2)
            return population[i] if keys[i] <= keys[j] else population[j]

        children = []
        for c in range(n_offspring):
            p1 = tournament()
            p2 = tournament()
            if c < n_cross:
                take = rng.random(genome) < 0.5
                child = np.where(take, p1, p2)
            else:
                child = p1.copy()
            flip = rng.random(genome) < resolved.mutation_rate
            child = np.logical_xor(child, flip)
            children.append(repair(child, cfg.max_states, rng))
        population = np.vstack([elites, np.stack(children)])
        fitness = evaluate_all(population)

        gen_best = min(_rank_keys(population, fitness, pool))
        best_key = min(best_key, gen_best)
        best_trace.append(best_key[0])
        if (
            gen >= cfg.stall_generations
            and best_trace[gen - cfg.stall_generations] - best_trace[gen]
            < cfg.stall_tolerance
        ):
            break

    return {
        "best_subset": best_key[2],
        "best_j": best_key[0],
        "trace": best_trace,
        "generations": generations,
    }


def ga_select(
    evaluator: SubsetEvaluator,
    test: TimeSeriesDataset,
    pool: Sequence[int],
    cfg: GAConfig,
    workers: int = 1,
) -> SelectionResult:
    """Best-of-restarts GA search over the kept candidate pool.

    Restarts are independent and may run in parallel. Serial restarts share
    ``evaluator``'s cache; each restart run in a worker starts from a copy of
    it and keeps its own fits. Either way changes speed but never results.
    """
    pool = tuple(sorted(set(pool)))
    if not pool:
        raise DatasetError("candidate pool is empty")
    fn = partial(_run_restart, pool=pool, cfg=cfg, evaluator=evaluator)
    runs = run_restarts(fn, cfg.restarts, workers)
    best_run = min(runs, key=lambda r: subset_key(r["best_j"], r["best_subset"]))
    restart_js = [r["best_j"] for r in runs]
    diagnostics = {
        "restart_best": [
            {"indices": list(r["best_subset"]), "J": r["best_j"], "generations": r["generations"]}
            for r in runs
        ],
        "j_restart_best": min(restart_js),
        "j_restart_median": float(np.median(restart_js)),
        "trace": best_run["trace"],
    }
    best = subset_key(best_run["best_j"], best_run["best_subset"])
    return finish_winner(evaluator, test, best, "ga", diagnostics)
