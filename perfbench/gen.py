"""Seeded workload generator: the FrameQL suite and the serve-mix schedule.

The driver receives only what this module writes. The same seed always
gives a byte-identical file (tests/test_gen.py checks it).

The seed varies the parameters of every query, the order the suite runs
in, which streams each tenant asks about and what it asks when. It draws
each suite parameter family as a permutation of one fixed multiset over the
six streams, and gives every seed's serve-mix schedule the same mix: each
window asks each query kind twice, every stream carries the same share,
and twin tenants ask about the same stream in the same share of windows.
So different seeds ask different questions of comparable total cost.
Scrubbing thresholds stay within what the test day holds, so every query
has answers.
"""

import random

FORMAT_VERSION = "1"

# Days per stream: train, held-out, test frames.
DAYS = (1500, 1500, 4500)

# (stream, class, scrubbing HAVING count); each count matches between 350
# and 1400 test-day frames at DAYS, so LIMIT is always within reach.
STREAMS = (
    ("taipei", "car", 3),
    ("night-street", "car", 1),
    ("rialto", "boat", 2),
    ("grand-canal", "boat", 2),
    ("amsterdam", "car", 2),
    ("archie", "car", 2),
)

ERRORS = ("0.075", "0.1", "0.1", "0.1", "0.1", "0.125")
LIMITS = (4, 5, 5, 5, 5, 6)
GAPS = (90, 120, 150, 150, 180, 210)
FNR_FPR = (("0.01", "0.01"), ("0.01", "0.02"), ("0.02", "0.01"),
           ("0.02", "0.02"), ("0.01", "0.01"), ("0.02", "0.02"))
REDNESS = ("0.2", "0.25", "0.3")

# serve-mix: tenants (each admits one query per tick) and ticks per pass.
# Tenants t and t+4 are twins: they ask the same kind of question in each
# tick, about the three streams of row t below (positions in a seeded
# permutation of the streams). Every position is in two rows, so every
# stream carries about the same share of the load.
TENANTS = 8
TICKS = 30
TENANT_STREAMS = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))
# What a twin pair asks about in its same-kind ticks, as (twin, twin)
# positions in its row: rounds of six ticks alternate one stream for both
# (they coalesce unless the kind trains nothing) and two streams, so each
# round asks about every stream of the row four times.
ONE_STREAM = ((0, 0), (1, 1), (2, 2))
TWO_STREAMS = ((0, 1), (1, 2), (2, 0))
SERVE_KINDS = ("fcount", "scrub", "select", "distinct")
SERVE_ERRORS = ("0.05", "0.1", "0.15")
SERVE_LIMITS = (3, 5, 10)
SERVE_GAPS = (50, 150, 300)


def fcount(stream, cls, error):
    return ("SELECT FCOUNT(*) FROM %s WHERE class = '%s' "
            "ERROR WITHIN %s AT CONFIDENCE 95%%" % (stream, cls, error))


def scrub(stream, cls, n, limit, gap):
    return ("SELECT timestamp FROM %s GROUP BY timestamp "
            "HAVING SUM(class='%s') >= %d LIMIT %d GAP %d"
            % (stream, cls, n, limit, gap))


def select(stream, cls, fnr, fpr):
    return ("SELECT timestamp FROM %s WHERE class = '%s' "
            "FNR WITHIN %s FPR WITHIN %s" % (stream, cls, fnr, fpr))


def distinct(stream, cls):
    return ("SELECT COUNT(DISTINCT trackid) FROM %s WHERE class = '%s'"
            % (stream, cls))


def content(redness):
    return ("SELECT * FROM taipei WHERE class = 'bus' "
            "AND redness(content) >= %s AND area(mask) > 20000 "
            "GROUP BY trackid HAVING COUNT(*) > 15" % redness)


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


class _Queries:
    """Query table keyed by FrameQL text, so a repeated question is one id."""

    def __init__(self):
        self.rows = []  # (id, kind, stream, frameql, checks)
        self.by_text = {}

    def add(self, prefix, kind, stream, frameql, checks=()):
        if frameql in self.by_text:
            return self.by_text[frameql]
        qid = "%s%d" % (prefix, len(self.rows))
        self.rows.append((qid, kind, stream, frameql, tuple(checks)))
        self.by_text[frameql] = qid
        return qid


def generate(seed):
    """Returns the workload file for `seed` as a string."""
    rng = random.Random("perfbench:%d" % seed)
    queries = _Queries()
    errors = _shuffled(rng, ERRORS)
    limits = _shuffled(rng, LIMITS)
    gaps = _shuffled(rng, GAPS)
    rates = _shuffled(rng, FNR_FPR)

    suite = []
    pools = {}  # (stream, kind) -> serve-mix query ids
    for i, (stream, cls, n) in enumerate(STREAMS):
        fid = queries.add("q", "fcount", stream, fcount(stream, cls, errors[i]),
                          [("fcount", cls, errors[i])])
        sid = queries.add("q", "scrub", stream,
                          scrub(stream, cls, n, limits[i], gaps[i]),
                          [("scrub", cls, n, limits[i], gaps[i])])
        bid = queries.add("q", "select", stream, select(stream, cls, *rates[i]))
        did = queries.add("q", "distinct", stream, distinct(stream, cls))
        suite += [fid, sid, bid, did]
        if stream == "taipei":
            suite.append(queries.add("q", "content", stream,
                                     content(rng.choice(REDNESS))))

        # The tenants' questions about this stream reuse the suite's
        # scrubbing threshold and selection targets (so every NN they need
        # is in the fixture) and vary ERROR, LIMIT and GAP.
        pools[(stream, "select")] = [bid]
        pools[(stream, "distinct")] = [did]
        pools[(stream, "fcount")] = [
            queries.add("q", "fcount", stream, fcount(stream, cls, error),
                        [("fcount", cls, error)])
            for error in SERVE_ERRORS]
        pools[(stream, "scrub")] = [
            queries.add("q", "scrub", stream, scrub(stream, cls, n, limit, gap),
                        [("scrub", cls, n, limit, gap)])
            for limit, gap in zip(SERVE_LIMITS, SERVE_GAPS)]
    rng.shuffle(suite)

    names = [s[0] for s in STREAMS]
    order = _shuffled(rng, names)
    half = TENANTS // 2
    rows = [[order[k] for k in TENANT_STREAMS[t]] for t in range(half)]
    rounds = {}

    def draw(key, new_round):
        """The next value of the round kept under `key`; new_round()
        gives the values of a fresh round, in order."""
        if not rounds.get(key):
            rounds[key] = new_round()
        return rounds[key].pop(0)

    def twin_round():
        return [ask for pair in zip(_shuffled(rng, ONE_STREAM),
                                    _shuffled(rng, TWO_STREAMS))
                for ask in pair]

    schedule = []
    for tick in range(TICKS):
        asks = []
        for t in range(half):
            # Every window asks each kind twice, so windows cost alike.
            kind = SERVE_KINDS[(t + tick) % len(SERVE_KINDS)]
            positions = draw((t, kind), twin_round)
            for twin, k in zip((t, t + half), positions):
                pool = pools[(rows[t][k], kind)]
                qid = draw((rows[t][k], kind), lambda: _shuffled(rng, pool))
                asks.append(("tenant%d" % twin, qid))
        schedule += [(tick, client, qid)
                     for client, qid in _shuffled(rng, asks)]

    lines = ["perfbench-suite\t" + FORMAT_VERSION,
             "days\t%d\t%d\t%d" % DAYS]
    lines += ["stream\t" + name for name in names]
    for qid, kind, stream, frameql, checks in queries.rows:
        lines.append("\t".join(("query", qid, kind, stream, frameql)))
        for check in checks:
            lines.append("\t".join(["check", qid] + [str(c) for c in check]))
    lines += ["suite\t" + qid for qid in suite]
    lines += ["tick\t%d\t%s\t%s" % row for row in schedule]
    return "\n".join(lines) + "\n"


def summary(text):
    """Input sizes of a generated file, for the run header."""
    rows = [line.split("\t") for line in text.splitlines()]
    days = next(r for r in rows if r[0] == "days")
    return {
        "streams": sum(1 for r in rows if r[0] == "stream"),
        "days": "/".join(days[1:]),
        "suite_queries": sum(1 for r in rows if r[0] == "suite"),
        "serve_queries": sum(1 for r in rows if r[0] == "tick"),
        "distinct_queries": sum(1 for r in rows if r[0] == "query"),
    }
