"""Seeded inputs of the three workloads: designs and request sequences.

Everything here is plain data derived from ``(workload, seed, seconds)``
and nothing else, so two commits given the same arguments run the same
requests in the same order.  The number of requests is fixed from
``seconds`` by a nominal cost per request (not by a clock), which makes
the sequence identical on a fast and a slow commit; a run then lasts
about ``seconds`` on the commit the nominal costs were measured on.

The designs are the same for every seed: a compare's cost moves by a
fifth with the placement it draws, and whether a macro design routes
depends on it too, which is more than a run's worth of requests
averages out, so the spread between seeds would measure the draw
rather than the program.  The seed draws what the requests ask of
those designs: the order and budget slacks of the compares
(cold-compare, warm-replay) and the order and slacks of the serve-mix
misses.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cold-compare", "warm-replay", "serve-mix")
DEFAULT_SEED = 0

#: One stratum block of cold-compare designs: (sinks, generator, macros).
#: Position 3 carries the one-in-eight macro design; its generator
#: alternates between blocks so both generators meet the macro router.
#: Half of each block (112-sink H-trees and 120-sink clustered designs)
#: takes about the same time, and the rest lies clearly below (64, 96)
#: or above (the macro design, 192) it, so the median latency of a run
#: is the median of that middle group: it rests on ten or more similar
#: requests, not on whichever size happens to sit at the middle rank.
#: Whether the macro design routes then moves the count of failures,
#: not p50.
_BLOCK = ((64, "clustered", 0), (120, "clustered", 0), (112, "htree", 0),
          (144, "htree", 3), (120, "clustered", 0), (112, "htree", 0),
          (192, "clustered", 0), (96, "htree", 0))

#: Budget slacks a compare draws from, around the default 0.15.
_COMPARE_SLACKS = (0.1, 0.125, 0.15, 0.175, 0.2)

#: warm-replay's designs: set-up compares each and sweeps those at
#: :data:`_WARM_SWEPT`, so the macro design (position 3) is one request
#: in ten.  They are smaller than cold-compare's so set-up stays short
#: and a run replays about a hundred requests.  The macro design is one
#: of the smallest, so whether it routes moves set-up time by a few
#: percent; ten distinct requests keep the median's step small when a
#: failure drops it out.
_WARM = ((64, "clustered", 0), (80, "htree", 0), (96, "clustered", 0),
         (64, "htree", 3), (72, "clustered", 0), (88, "htree", 0),
         (112, "clustered", 0), (104, "htree", 0))
_WARM_SWEPT = (1, 5)

#: serve-mix misses run on these mid-size designs (no macros: the
#: workload measures the daemon and the optimizer, not the router).
#: Five designs, so the median miss latency does not rest on one.  They
#: are the same for every seed: with only five, a seed that happened to
#: draw hard placements moved the whole run, so the seed draws the
#: order of misses and their slacks instead.
_SERVE_DESIGNS = ((80, "clustered", 0), (96, "htree", 0),
                  (104, "clustered", 0), (112, "htree", 0),
                  (128, "clustered", 0))

#: Distinct tight slacks a serve-mix miss draws from (0.05 .. 0.20).
_SERVE_SLACKS = tuple(round(0.05 + 0.0025 * k, 4) for k in range(61))

#: Nominal seconds per request (cold, warm) and per serve-mix cycle,
#: measured on a 2-core x86 host; they only size the sequences.
NOMINAL_S = {"cold-compare": 1.0, "warm-replay": 0.2, "serve-mix": 1.5}


def _mix(seed: int, *salt: int) -> int:
    """A stable 31-bit sub-seed (no use of ``hash``)."""
    value = seed & 0x7FFFFFFF
    for s in salt:
        value = (value * 1_000_003 + s + 0x9E3779B1) & 0x7FFFFFFF
    return value


def design_spec(name: str, sinks: int, generator: str, macros: int,
                seed: int) -> dict:
    """JSON form of one :class:`repro.designs.DesignSpec`."""
    spec = {"schema": 1, "name": name, "n_sinks": sinks,
            "die_edge": round(35.0 * math.sqrt(sinks), 1),
            "seed": seed, "seed_salt": f"perfbench-{name}-{seed}",
            "n_blockages": macros}
    if generator == "htree":
        spec.update(generator="htree", htree_levels=2 if sinks <= 128 else 3)
        if macros:
            spec["blockage_fraction"] = 0.14
    return spec


def _block_design(block: int, pos: int) -> dict:
    sinks, generator, macros = _BLOCK[pos]
    if macros and block % 2:
        generator = "clustered"
    name = f"b{block}p{pos}"
    return design_spec(name, sinks, generator, macros,
                       _mix(DEFAULT_SEED, block, pos))


def warm_up() -> tuple[dict, dict]:
    """(design, request): cold-compare's untimed compare on a small
    design of its own, run in set-up so that the loop's first request
    does not also pay for imports and first-call set-up."""
    spec = design_spec("warmup", 32, "clustered", 0, _mix(DEFAULT_SEED, 400))
    return spec, {"id": "compare:warmup", "kind": "compare",
                  "design": spec["name"], "body": {}}


def request_count(workload: str, seconds: float) -> int:
    """Requests (cycles for serve-mix) one run of ``seconds`` makes."""
    return max(1, int(round(seconds / NOMINAL_S[workload])))


def cold_compare(seed: int, seconds: float) -> tuple[list[dict], list[dict]]:
    """(designs, requests): one compare per distinct design.

    The designs are the same for every seed; the seed draws the order
    of the compares and each one's budget slack.
    """
    rng = random.Random(_mix(seed, 300))
    designs = [_block_design(i // len(_BLOCK), i % len(_BLOCK))
               for i in range(request_count("cold-compare", seconds))]
    requests = []
    for spec in designs:
        slack = rng.choice(_COMPARE_SLACKS)
        requests.append({"id": f"compare:{spec['name']}@{slack}",
                         "kind": "compare", "design": spec["name"],
                         "body": {"slack": slack}})
    rng.shuffle(requests)
    return designs, requests


def warm_replay(seed: int, seconds: float
                ) -> tuple[list[dict], list[dict], list[dict]]:
    """(designs, set-up requests, replayed requests).

    Set-up runs a compare on each design of :data:`_WARM` and a sweep
    on those at :data:`_WARM_SWEPT`.  The timed phase replays that list
    for the run's request count, every request equally often (to one),
    in an order the seed draws, as it draws each compare's slack.
    """
    rng = random.Random(_mix(seed, 500))
    designs, setup = [], []
    for pos, (sinks, generator, macros) in enumerate(_WARM):
        spec = design_spec(f"w{pos}", sinks, generator, macros,
                           _mix(DEFAULT_SEED, 50, pos))
        designs.append(spec)
        slack = rng.choice(_COMPARE_SLACKS)
        setup.append({"id": f"compare:{spec['name']}@{slack}",
                      "kind": "compare", "design": spec["name"],
                      "body": {"slack": slack}})
        if pos in _WARM_SWEPT:
            setup.append({"id": f"sweep:{spec['name']}", "kind": "sweep",
                          "design": spec["name"], "body": {}})
    count = request_count("warm-replay", seconds)
    replay = [setup[i % len(setup)] for i in range(count)]
    rng.shuffle(replay)
    return designs, setup, replay


def serve_mix(seed: int, seconds: float
              ) -> tuple[list[dict], list[dict], list[list[dict]]]:
    """(designs, set-up requests, rounds of two requests).

    Set-up computes each design's build and all-NDR reference through
    the daemon.  Each cycle is four rounds sent on two connections:

    1. two misses on different cells (one waits for the other: one
       worker);
    2. a miss and a repeat of round 1's first miss (a response-cache
       hit);
    3. the same fresh cell on both connections (one computation, one
       coalesced);
    4. a repeat of round 3's cell (a hit) and a miss.
    """
    designs = [design_spec(f"s{i}", sinks, generator, macros,
                           _mix(DEFAULT_SEED, 100, i))
               for i, (sinks, generator, macros) in enumerate(_SERVE_DESIGNS)]
    setup = [{"id": f"reference:{d['name']}", "kind": "run",
              "design": d["name"],
              "body": {"policy": "all-ndr", "slack": None}}
             for d in designs]
    cells = [(d["name"], s) for d in designs for s in _SERVE_SLACKS]
    random.Random(_mix(seed, 200)).shuffle(cells)
    fresh = iter(cells)

    def miss() -> dict:
        name, slack = next(fresh)
        return {"id": f"run:{name}@{slack}", "kind": "run", "design": name,
                "body": {"policy": "smart", "slack": slack}}

    rounds: list[list[dict]] = []
    cycles = request_count("serve-mix", seconds)
    if cycles * 5 > len(cells):
        raise ValueError(f"serve-mix has {len(cells)} fresh cells; "
                         f"{cycles} cycles need {cycles * 5}")
    for _ in range(cycles):
        a, b, c, x, d = miss(), miss(), miss(), miss(), miss()
        rounds += [[a, b], [c, a], [x, x], [x, d]]
    return designs, setup, rounds
