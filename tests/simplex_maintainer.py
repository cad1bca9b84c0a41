"""The paper's implicit simplex maintainer and its dense twin, kept as tested
references.

``SimplexMaintainer`` maintains a simplex point y proportional to exp(v) under
per-iteration dense-small and sparse log-weight updates.  ``ReferenceSimplex``
(at the end of this module) carries the same recursion with explicit vectors
at O(n) per update; over the doubled rows it is the oracle of the folded
``linfflow.mirrorprox.phase_iterates`` kernel.  Mirror-prox carries the
recursion over its folded dense dual, which was measured cheaper than the
maintainer at every size from 16 to 131,072 rows, so no solver calls either
class.  They live here, under a file name pytest does not collect, so that
``test_simplexmaint.py``, ``test_mp_kernel.py`` and acceptance criterion 7
keep checking the maintainer against the dense twin and the kernel against
the twin.

The update recursion is the half-step/full-step pair

    v_{t+1/2} = (1 - c) v_t - delta_t
    v_{t+1}   = v_t - c v_{t+1/2} - delta_t - zeta_t

with ``delta_t`` dense but tiny (sup norm at most 1/(8n)) and sparsely changing
between iterations, and ``zeta_t`` sparse.  The paper answers coordinate
queries, half-step queries, and exact sampling (powers 1 and 1/2) in
near-constant amortized time per iteration.  This implementation does not,
and has two known faults:

* It takes the whole dense ``delta_t`` on every update and makes about ten
  O(n) numpy passes over it (in ``update_half``: the sup-norm bound, the
  change mask, the copy; in ``update``: the bound again, ``np.array_equal``,
  ``mu``, ``np.flatnonzero(mu)``, the copy), so its cost per iteration grows
  with n.  Driven as the mirror-prox dual it grew by about 17 ns per row and
  never beat the dense dual.  Passing only the changed rows (a sparse delta
  update) would give it its asymptotic advantage.
* Its bucket partition sums can lose positivity: driven as mirror-prox's dual,
  ``regress --solver mirror-prox --eps 0.1 --seed 3`` raised
  ``SolverFault("bucket partition sum lost positivity")`` after about 95 s on
  an 8x16 instance, ``tests/helpers.random_sparse(np.random.default_rng(5),
  8, 16, per_col=2, scale=0.5)`` redrawn until no row is empty, divided by
  ``max(norm_inf, 1)``, with ``b = rng.uniform(-0.8, 0.8, 8)``.

Two layers cooperate:

* A linear representation ``(v_t, v_{t-1/2}, v_{t-1}) = (q, r, s) @ M^t`` with
  3x3 coefficient matrices updated once per iteration and sparse corrections
  folded into q, r, s.  This is the exact per-coordinate value authority.

* A forest of buckets, each freezing an anchor vector v0 and a delta snapshot
  at creation.  Substituting the half step into the full step gives the
  first-order recursion ``v_{t+1} = lam v_t - (1-c) delta`` with
  ``lam = 1 - c + c**2``, so a coordinate untouched since bucket creation
  satisfies the closed form ``v_t = lam^D v0 - rho_D delta`` exactly.  The
  bucket therefore stores power sums ``sum_i exp(v0_i - base) v0_i^e1
  delta_i^e2`` and evaluates its partition-sum contribution through a Taylor
  expansion of exp whose argument ``v_t - v0 + sigma`` stays within +-1/2 by
  a per-bucket drift scalar sigma.  All Taylor monomial magnitudes stay O(1),
  which raw (q, r, s)-basis monomials would not (entries of M^t grow linearly
  in t, so those monomials cancel catastrophically at scale (t * range)^d).

Any coordinate touched by a sparse update is evicted into a fresh singleton
bucket; a binomial-heap discipline over bucket sizes (merge on rank collision,
re-anchor and squish at merges) keeps at most one bucket per rank and bounds
the amortized merge work.  The structure restarts itself from exact values
when a bucket drifts too far, and at the first ``update_half`` after n
iterations.
"""

from __future__ import annotations

import math

import numpy as np

from linfflow.errors import InputError, SolverFault
from linfflow.sampling import DynamicTree

ACCEPT_MARGIN = 0.75
DRIFT_LIMIT = 0.62
MAX_REJECTS = 64


def taylor_degree(tau):
    """Smallest degree (at least 8) whose remainder on |x| <= 0.6 is below tau/8.

    Uses the true factorial remainder bound rather than the loose 2^-d one;
    relative error versus exp(x) on the window is 0.6^(d+1) e^1.2 / (d+1)!.
    """
    d = 8
    while 0.6 ** (d + 1) * math.exp(1.2) / math.factorial(d + 1) > tau / 8.0:
        d += 1
        if d > 60:
            raise InputError("tau too small for a representable Taylor degree")
    return d


def _rank_of(size):
    return 0 if size <= 1 else math.ceil(math.log2(size))


class _Bucket:
    """A set of coordinates sharing an anchor, drift scalar, and power sums."""

    __slots__ = (
        "bid", "coords", "pos", "alive", "alive_count", "v0", "db", "base",
        "ev1", "ev2", "sums1", "sums2", "tot1", "tot2", "tree1", "tree2", "sigma", "istar",
        "rank", "credits", "t0", "creation_kind",
    )


class SimplexMaintainer:
    """Near-constant-time coordinate queries and exact sampling for y ~ exp(v)."""

    def __init__(self, v0, eps, kappa, tau=1e-6):
        v0 = np.asarray(v0, dtype=np.float64)
        if v0.ndim != 1 or len(v0) < 1:
            raise InputError("v0 must be a nonempty vector")
        self.n = len(v0)
        if eps <= 0 or kappa <= 0:
            raise InputError("eps and kappa must be positive")
        self.eps = float(eps)
        self.kappa = float(kappa)
        self.tau = float(tau)
        self.log_n = max(math.log(self.n), 1.0)
        self.c = self.eps / (4.0 * self.kappa * self.log_n)
        self.window_cap = self.n
        self.squish_window = 16.0 * self.log_n / min(self.eps, 1.0 / 7.0)
        self.d = taylor_degree(self.tau)
        e1, e2 = np.meshgrid(np.arange(self.d + 1), np.arange(self.d + 1),
                             indexing="ij")
        keep = (e1 + e2) <= self.d
        self._e1 = e1[keep].astype(np.int64)
        self._e2 = e2[keep].astype(np.int64)
        self._etot = self._e1 + self._e2
        fact = np.array([math.factorial(k) for k in range(self.d + 1)], dtype=float)
        self._inv_fact = 1.0 / (fact[self._e1] * fact[self._e2])
        self._inv_fact_plain = 1.0 / fact
        self._arange_d = np.arange(self.d + 1, dtype=np.float64)

        c = self.c
        self._c1 = 2.0 - c + c * c
        self._c2 = 1.0 - c + c * c
        self._c3 = 1.0 - c
        self._ln_lam = math.log1p(-c + c * c)
        self._m_step = np.array([
            [self._c1, self._c3, 1.0],
            [0.0, 1.0, 0.0],
            [-self._c2, -self._c3, 0.0],
        ])
        self._m_step_inv = np.linalg.inv(self._m_step)

        # instrumentation
        self.deletions = 0
        self.merges_type1 = 0
        self.merges_type2 = 0
        self.restarts = 0
        self.forced_restarts = 0
        self.work = 0
        self.merge_log = []  # type-2 merges: (rank created, size, deletions so far)

        self._delta_state = np.zeros(self.n)
        self._zeta_prev = {}
        self._bid_next = 0
        self._init_from(v0)

    # ------------------------------------------------------------------
    # linear representation (value authority)

    def _init_from(self, values):
        """Anchor the representation and a single all-coordinate bucket."""
        self.t = 0
        self.window = 0
        self._mt = np.eye(3)
        self._minv_t = np.eye(3)
        self._steps_since_inv = 0
        v = np.asarray(values, dtype=np.float64).copy()
        v -= v.max()  # position normalization; y is shift invariant
        d0 = self._delta_state
        self._q = v.copy()
        self._r = (self._c3 * v - self.c * d0) / self._c2
        self._s = (v + self._c3 * d0) / self._c2
        self.buckets = {}
        self.by_rank = {}
        self.coord2bucket = np.full(self.n, -1, dtype=np.int64)
        self._half_delta = None
        self._cache = {}
        self._create_bucket(np.arange(self.n), kind="init")
        self._needs_restart = False

    def _values_at(self, idx):
        a = self._mt[:, 0]
        return self._q[idx] * a[0] + self._r[idx] * a[1] + self._s[idx] * a[2]

    def value(self, i):
        a = self._mt[:, 0]
        return float(self._q[i] * a[0] + self._r[i] * a[1] + self._s[i] * a[2])

    def values(self):
        return self._values_at(np.arange(self.n))

    def _reanchor(self, i, value):
        """Rewrite (q, r, s) at i so the represented v_t equals ``value``.

        The synthetic history is chosen so the homogeneous recursion going
        forward reproduces the true dynamics under the *folded* dense state
        (``_delta_state``); pending dense changes are still corrected by the
        next fold, so using the bucket's newer snapshot here would double
        count them.
        """
        dval = float(self._delta_state[i])
        vm1 = (value + self._c3 * dval) / self._c2
        vh = (self._c3 * value - self.c * dval) / self._c2
        triple = np.array([value, vh, vm1]) @ self._minv_t
        self._q[i], self._r[i], self._s[i] = triple

    # ------------------------------------------------------------------
    # buckets

    def _create_bucket(self, coords, kind="merge", values=None, db=None,
                       merge_type=None):
        coords = np.asarray(coords, dtype=np.int64)
        size = len(coords)
        if values is None:
            values = self._values_at(coords)
        else:
            values = np.asarray(values, dtype=np.float64).copy()
        if db is None:
            db = self._delta_state[coords].copy()
        else:
            db = np.asarray(db, dtype=np.float64).copy()
        if size > 1:
            lo = values.max() - self.squish_window
            raised = values < lo
            if raised.any():
                for k in np.flatnonzero(raised):
                    values[k] = lo
                    self._reanchor(int(coords[k]), lo)
        b = _Bucket()
        b.bid = self._bid_next
        self._bid_next += 1
        b.coords = coords
        b.pos = {int(ci): k for k, ci in enumerate(coords)}
        b.alive = np.ones(size, dtype=bool)
        b.alive_count = size
        b.v0 = values
        b.db = db
        b.base = float(values.max())
        b.ev1 = np.exp(values - b.base)
        b.ev2 = np.exp(0.5 * (values - b.base))
        if size == 1:
            mono = (values[0] ** self._e1) * (db[0] ** self._e2) * self._inv_fact
            b.sums1 = b.ev1[0] * mono
            b.sums2 = b.ev2[0] * mono
        else:
            pv = values[:, None] ** self._e1[None, :]
            pd = db[:, None] ** self._e2[None, :]
            mono = pv * pd * self._inv_fact[None, :]
            b.sums1 = (b.ev1[:, None] * mono).sum(axis=0)
            b.sums2 = (b.ev2[:, None] * mono).sum(axis=0)
        b.tot1 = float(b.ev1.sum())
        b.tot2 = float(b.ev2.sum())
        # sampling trees are built on first use; most buckets are merged away
        # before they are ever sampled
        b.tree1 = None
        b.tree2 = None
        b.sigma = 0.0
        b.istar = int(np.argmax(values))
        b.rank = _rank_of(size)
        b.credits = 2 ** (b.rank + 1) - size
        b.t0 = self.t
        b.creation_kind = kind
        self.work += size * len(self._e1) * 2 + size
        self.buckets[b.bid] = b
        self.by_rank.setdefault(b.rank, []).append(b.bid)
        self.coord2bucket[coords] = b.bid
        self._cache.clear()
        if kind != "init" and merge_type is not None:
            self._maybe_merge(b.rank, merge_type)
        return b

    def _coef_pair(self, b, half=False):
        """Taylor coefficients of (v0, delta snapshot) for bucket b now."""
        dln = (self.t - b.t0) * self._ln_lam
        clam = math.expm1(dln)          # lam^D - 1
        rho = -clam / self.c            # (1 - lam^D) / c
        if not half:
            return clam, -rho
        cv = self._c3 * (clam + 1.0) - 1.0
        cd = -(self._c3 * rho + 1.0)
        return cv, cd

    def _log_partition(self, power=1.0, half=False):
        """log sum_i exp(power * v_i) (or the half-step v) via the bucket sums.

        Evaluated in one batched pass over all live buckets: power tables of
        the per-bucket Taylor coefficients hit the stacked sum arrays at once.
        """
        key = ("lp", power, half)
        if key in self._cache:
            return self._cache[key]
        if half and self._half_delta is None:
            raise SolverFault("half-step queried before update_half")
        live = [b for b in self.buckets.values() if b.alive_count > 0]
        if not live:
            raise SolverFault("no live buckets")
        nb = len(live)
        cvs = np.empty(nb)
        cds = np.empty(nb)
        sig = np.empty(nb)
        pref = np.empty(nb)
        sums = np.empty((nb, len(self._e1)))
        for k, b in enumerate(live):
            cv, cd = self._coef_pair(b, half=half)
            sg = b.sigma if not half else (
                b.sigma + self.c * self._closed_value(b, b.istar))
            cvs[k], cds[k], sig[k] = cv, cd, sg
            pref[k] = power * (b.base - sg)
            sums[k] = b.sums1 if power == 1.0 else b.sums2
        if power != 1.0:
            cvs, cds, sig = power * cvs, power * cds, power * sig
        ar = self._arange_d[None, :]
        pcv = cvs[:, None] ** ar
        pcd = cds[:, None] ** ar
        ttail = np.cumsum(sig[:, None] ** ar * self._inv_fact_plain[None, :], axis=1)
        coef = (pcv[:, self._e1] * pcd[:, self._e2]
                * ttail[:, self.d - self._etot])
        dots = (coef * sums).sum(axis=1)
        self.work += coef.size
        if not np.isfinite(dots).all() or (dots <= 0.0).any():
            raise SolverFault("bucket partition sum lost positivity")
        terms = pref + np.log(dots)
        mx = float(terms.max())
        out = mx + math.log(float(np.exp(terms - mx).sum()))
        self._cache[key] = out
        return out

    def _closed_value(self, b, slot):
        """v_t of a bucket member by the in-bucket closed form (ghosts allowed)."""
        dln = (self.t - b.t0) * self._ln_lam
        lam_d = math.exp(dln)
        rho = -math.expm1(dln) / self.c
        return lam_d * b.v0[slot] - rho * b.db[slot]

    def _drift_at(self, b, slot, half=False):
        cv, cd = self._coef_pair(b, half=half)
        sigma = b.sigma if not half else b.sigma + self.c * self._closed_value(b, b.istar)
        return cv * b.v0[slot] + cd * b.db[slot] + sigma

    def _draw_slot(self, b, power, uniforms):
        """Draw a live slot proportional to its anchor weight."""
        if b.alive_count <= 16 and b.tree1 is None and b.tree2 is None:
            ev = b.ev1 if power == 1.0 else b.ev2
            tot = b.tot1 if power == 1.0 else b.tot2
            u = uniforms.next() * tot
            acc = 0.0
            last = 0
            for slot in range(len(ev)):
                if b.alive[slot]:
                    acc += ev[slot]
                    last = slot
                    if u < acc:
                        return slot
            return last
        return self._tree(b, power).sample(uniforms)

    def _tree(self, b, power):
        """Anchor-weight sampling tree of a bucket, built on demand."""
        if power == 1.0:
            if b.tree1 is None:
                b.tree1 = DynamicTree(np.where(b.alive, b.ev1, 0.0))
                self.work += 2 * len(b.ev1)
            return b.tree1
        if b.tree2 is None:
            b.tree2 = DynamicTree(np.where(b.alive, b.ev2, 0.0))
            self.work += 2 * len(b.ev2)
        return b.tree2

    # ------------------------------------------------------------------
    # deletions and merges

    def _delete(self, i):
        """Remove i from its bucket; spawn of the replacement is the caller's job."""
        bid = int(self.coord2bucket[i])
        b = self.buckets[bid]
        slot = b.pos[i]
        if not b.alive[slot]:
            raise SolverFault(f"coordinate {i} already deleted from bucket {bid}")
        self.deletions += 1
        self.coord2bucket[i] = -1
        self._cache.clear()
        if b.alive_count == 1:
            self.by_rank[b.rank].remove(bid)
            if not self.by_rank[b.rank]:
                del self.by_rank[b.rank]
            del self.buckets[bid]
            return
        mono = (b.v0[slot] ** self._e1) * (b.db[slot] ** self._e2) * self._inv_fact
        b.sums1 -= b.ev1[slot] * mono
        b.sums2 -= b.ev2[slot] * mono
        b.tot1 -= float(b.ev1[slot])
        b.tot2 -= float(b.ev2[slot])
        if b.tree1 is not None:
            b.tree1.update(slot, 0.0)
        if b.tree2 is not None:
            b.tree2.update(slot, 0.0)
        b.alive[slot] = False
        b.alive_count -= 1
        self.work += 2 * len(self._e1)
        new_rank = _rank_of(b.alive_count)
        if new_rank < b.rank:
            self.by_rank[b.rank].remove(bid)
            if not self.by_rank[b.rank]:
                del self.by_rank[b.rank]
            b.rank = new_rank
            self.by_rank.setdefault(new_rank, []).append(bid)
            self._maybe_merge(new_rank, "type1")

    def _maybe_merge(self, rank, merge_type):
        """Merge the two oldest buckets at ``rank`` if it is duplicated."""
        ids = self.by_rank.get(rank, [])
        if len(ids) < 2:
            return
        b1 = self.buckets[ids[0]]
        b2 = self.buckets[ids[1]]
        if merge_type == "type1":
            self.merges_type1 += 1
        else:
            self.merges_type2 += 1
        coords = np.concatenate([b1.coords[b1.alive], b2.coords[b2.alive]])
        db = np.concatenate([b1.db[b1.alive], b2.db[b2.alive]])
        for b in (b1, b2):
            self.by_rank[b.rank].remove(b.bid)
            if not self.by_rank[b.rank]:
                del self.by_rank[b.rank]
            del self.buckets[b.bid]
        new_rank = _rank_of(len(coords))
        if merge_type != "type1":
            self.merge_log.append((new_rank, len(coords), self.deletions))
        self._create_bucket(coords, kind=merge_type, db=db, merge_type=merge_type)

    def _cascade(self):
        """Third stage: restore at most one bucket per rank, lowest rank first."""
        while True:
            lowest = -1
            for k, v in self.by_rank.items():
                if len(v) >= 2 and (lowest < 0 or k < lowest):
                    lowest = k
            if lowest < 0:
                return
            self._maybe_merge(lowest, "type2")

    def _spawn_singleton(self, i, value, db_value):
        """Slim rank-0 bucket construction; the hot path of every eviction."""
        b = _Bucket()
        b.bid = self._bid_next
        self._bid_next += 1
        b.coords = np.array([i], dtype=np.int64)
        b.pos = {i: 0}
        b.alive = np.ones(1, dtype=bool)
        b.alive_count = 1
        b.v0 = np.array([value])
        b.db = np.array([db_value])
        b.base = value
        e1 = math.exp(0.0)
        b.ev1 = np.array([e1])
        b.ev2 = np.array([e1])
        b.tot1 = e1
        b.tot2 = e1
        b.sums1 = (value ** self._e1) * (db_value ** self._e2) * self._inv_fact
        b.sums2 = b.sums1.copy()
        b.tree1 = None
        b.tree2 = None
        b.sigma = 0.0
        b.istar = 0
        b.rank = 0
        b.credits = 1
        b.t0 = self.t
        b.creation_kind = "singleton"
        self.work += len(self._e1)
        self.buckets[b.bid] = b
        self.by_rank.setdefault(0, []).append(b.bid)
        self.coord2bucket[i] = b.bid

    def _evict(self, i, db_value):
        """Move i into a fresh singleton anchored at its current exact value."""
        value = self.value(i)
        self._delete(i)
        self._spawn_singleton(i, value, db_value)

    # ------------------------------------------------------------------
    # public interface

    def coord(self, i):
        """Current simplex weight of coordinate i, within 1 + tau multiplicative."""
        return math.exp(self.value(i) - self._log_partition(1.0))

    def prob(self, i, power=1.0):
        """exp(power * v_i) / Z under the partition estimate sample() uses."""
        return math.exp(power * self.value(i) - self._log_partition(power))

    def coord_half(self, i):
        """Half-step weight of coordinate i; requires update_half this iteration."""
        if self._half_delta is None:
            raise SolverFault("coord_half before update_half")
        vh = self._c3 * self.value(i) - self._half_delta[i]
        return math.exp(vh - self._log_partition(1.0, half=True))

    def update_half(self, delta):
        """Publish the half-step representation v_{t+1/2} = (1-c) v_t - delta.

        Opens a new iteration, so it first restarts the structure when the
        n-iteration window is full.  Coordinates whose dense entry changed are
        evicted into fresh singleton buckets so every bucket's delta snapshot
        matches the live vector.
        """
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (self.n,):
            raise InputError("delta length mismatch")
        if np.abs(delta).max() > 1.0 / (8.0 * self.n) + 1e-12:
            raise InputError("dense update exceeds the 1/(8n) stability bound")
        if self.window >= self.window_cap:
            self.restart()
        changed = np.flatnonzero(delta != self._delta_state)
        for i in changed:
            self._evict(int(i), float(delta[i]))
        self._cascade()
        self._half_delta = delta.copy()
        self._cache.clear()

    def update(self, delta, zeta=()):
        """Advance one full iteration with dense ``delta`` and sparse ``zeta``.

        ``zeta`` is an iterable of (index, value) pairs.  Raises when the
        n-iteration window is exhausted and no ``update_half`` opened this
        iteration (which would have restarted the structure).
        """
        if self.window >= self.window_cap:
            raise SolverFault("update window exhausted; restart required")
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (self.n,):
            raise InputError("delta length mismatch")
        if np.abs(delta).max() > 1.0 / (8.0 * self.n) + 1e-12:
            raise InputError("dense update exceeds the 1/(8n) stability bound")
        zeta_now = {}
        for i, val in (zeta.items() if isinstance(zeta, dict) else zeta):
            zeta_now[int(i)] = zeta_now.get(int(i), 0.0) + float(val)

        if self._half_delta is None:
            self.update_half(delta)
        elif not np.array_equal(self._half_delta, delta):
            raise InputError("update delta differs from the update_half delta")

        # sigma updates use the pre-advance value of each bucket's designated max
        sigma_inc = {b.bid: self.c * self._closed_value(b, b.istar)
                     for b in self.buckets.values()}

        # mu is nonzero exactly at the coordinates update_half evicted; their
        # singleton buckets already carry the new snapshot, so after the fold
        # below the representation and the closed forms agree with no further
        # bucket work.  Fresh zeta hits change the value itself and are the
        # only coordinates evicted here.
        mu = delta - self._delta_state
        touched = {}
        for i in np.flatnonzero(mu):
            touched[int(i)] = [float(mu[i]), 0.0]
        for i, val in zeta_now.items():
            touched.setdefault(i, [0.0, 0.0])[1] += val
        for i, val in self._zeta_prev.items():
            touched.setdefault(i, [0.0, 0.0])[1] -= val

        self._mt = self._mt @ self._m_step
        self._minv_t = self._m_step_inv @ self._minv_t
        self.t += 1
        self._steps_since_inv += 1
        if self._steps_since_inv >= 32:
            self._minv_t = np.linalg.inv(self._mt)
            self._steps_since_inv = 0

        for bid, inc in sigma_inc.items():
            if bid in self.buckets:
                self.buckets[bid].sigma += inc

        c3 = self._c3
        for i, (mu_i, nu_i) in touched.items():
            corr = np.array([c3 * mu_i + nu_i, mu_i, 0.0]) @ self._minv_t
            self._q[i] -= corr[0]
            self._r[i] -= corr[1]
            self._s[i] -= corr[2]
            self.work += 3

        self._delta_state = delta.copy()
        self._zeta_prev = zeta_now

        for i in zeta_now:
            self._evict(i, float(delta[i]))
        self._cascade()

        self.window += 1
        self._half_delta = None
        self._cache.clear()
        for b in self.buckets.values():
            if abs(self._drift_at(b, b.istar)) > DRIFT_LIMIT:
                self._needs_restart = True
        if self._needs_restart:
            self.forced_restarts += 1
            self.restart()

    def restart(self, v=None):
        """Exact rebuild from current (or supplied) log-weights; resets the window."""
        values = self.values() if v is None else np.asarray(v, dtype=np.float64)
        self.restarts += 1
        self._zeta_prev = {}
        self._init_from(values)

    def sample(self, uniforms, power=1.0):
        """Exact draw proportional to exp(power * v_t); returns (index, weight).

        Rejection sampling against the per-bucket anchor distributions; the
        drift invariant bounds the acceptance ratio, so the expected number of
        rounds is constant.  The returned weight is exp(power * v_i) / Z with
        the same partition estimate coord() uses.
        """
        if power not in (1.0, 0.5):
            raise InputError("power must be 1 or 1/2")
        live = [b for b in self.buckets.values() if b.alive_count > 0]
        if not live:
            raise SolverFault("no live buckets")
        log_mass = []
        for b in live:
            tot = b.tot1 if power == 1.0 else b.tot2
            log_mass.append(power * (b.base - b.sigma) + math.log(tot))
        mx = max(log_mass)
        weights = [math.exp(v - mx) for v in log_mass]
        total = sum(weights)
        for _ in range(MAX_REJECTS):
            u = uniforms.next() * total
            acc = 0.0
            b = live[-1]
            for bk, w in zip(live, weights):
                acc += w
                if u < acc:
                    b = bk
                    break
            slot = self._draw_slot(b, power, uniforms)
            x = self._drift_at(b, slot)
            p_accept = math.exp(power * (x - ACCEPT_MARGIN))
            if uniforms.next() < p_accept:
                i = int(b.coords[slot])
                return i, self.prob(i, power)
        raise SolverFault("rejection sampling exceeded 64 rounds; drift invariant breached")


class ReferenceSimplex:
    """Dense twin: the same recursion carried with explicit vectors.

    It serves as the oracle the tests compare ``SimplexMaintainer`` against,
    and, over the doubled rows, the folded mirror-prox kernel.  Each query costs
    O(n); the normalised weights and those of the half step are cached until
    the next update.
    """

    def __init__(self, v0, eps, kappa):
        self.v = np.asarray(v0, dtype=np.float64).copy()
        self.v -= self.v.max()
        self.n = len(self.v)
        log_n = max(math.log(self.n), 1.0)
        self.c = eps / (4.0 * kappa * log_n)
        self.vh = None
        self._half_delta = None
        self._yh = None
        self._y = None

    def update_half(self, delta):
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (self.n,):
            raise InputError("delta length mismatch")
        if np.abs(delta).max() > 1.0 / (8.0 * self.n) + 1e-12:
            raise InputError("dense update exceeds the 1/(8n) stability bound")
        self.vh = (1.0 - self.c) * self.v - delta
        self._half_delta = delta.copy()
        self._yh = None

    def update(self, delta, zeta=()):
        if self._half_delta is None:
            self.update_half(delta)
        elif not np.array_equal(self._half_delta, delta):
            raise InputError("update delta differs from the update_half delta")
        zvec = np.zeros(self.n)
        for i, val in (zeta.items() if isinstance(zeta, dict) else zeta):
            zvec[int(i)] += float(val)
        self.v = self.v - self.c * self.vh - self._half_delta - zvec
        self.vh = None
        self._half_delta = None
        self._yh = None
        self._y = None

    def y(self):
        e = np.exp(self.v - self.v.max())
        return e / e.sum()

    def y_half(self):
        e = np.exp(self.vh - self.vh.max())
        return e / e.sum()

    def y_power(self, power):
        e = np.exp(power * (self.v - self.v.max()))
        return e / e.sum()

    def values(self):
        return self.v.copy()

    def coord(self, i):
        if self._y is None:
            self._y = self.y()
        return float(self._y[i])

    def coord_half(self, i):
        if self.vh is None:
            raise SolverFault("coord_half before update_half")
        if self._yh is None:
            self._yh = self.y_half()
        return float(self._yh[i])
