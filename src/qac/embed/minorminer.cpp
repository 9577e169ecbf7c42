#include "qac/embed/minorminer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qac/exec/exec.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"
#include "qac/util/rng.h"

namespace qac::embed {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kNone = UINT32_MAX;

class Embedder
{
  public:
    Embedder(const std::vector<std::pair<uint32_t, uint32_t>> &edges,
             size_t num_logical, const chimera::HardwareGraph &hw,
             const EmbedParams &params)
        : hw_(hw), params_(params), nbrs_(num_logical),
          chains_(num_logical), usage_(hw.numNodes(), 0),
          roots_(hw.numNodes())
    {
        for (const auto &[a, b] : edges) {
            if (a >= num_logical || b >= num_logical)
                fatal("findEmbedding: edge endpoint out of range");
            if (a == b)
                continue;
            nbrs_[a].push_back(b);
            nbrs_[b].push_back(a);
        }
        for (auto &nb : nbrs_) {
            std::sort(nb.begin(), nb.end());
            nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
        }
        buildActiveGraph();
    }

    /** One independent restart; abandons work once @p token reports a
     *  lower-indexed try has already succeeded. */
    std::optional<Embedding>
    attempt(Rng rng, const exec::CancelToken &token, size_t index)
    {
        token_ = &token;
        index_ = index;
        auto emb = tryOnce(rng);
        stats::count("embed.minorminer.tries");
        stats::count("embed.minorminer.rounds", work_.rounds);
        stats::count("embed.minorminer.placements", work_.placements);
        stats::count("embed.minorminer.searches", work_.searches);
        stats::count("embed.minorminer.settled", work_.settled);
        stats::count("embed.minorminer.unbounded", work_.unbounded);
        return emb;
    }

  private:
    /** A qubit's state in one neighbor's search; valid only while
     *  epoch matches the current placement. */
    struct Label
    {
        double dist;
        uint32_t pred; ///< kNone on the source chain
        uint32_t epoch;
    };
    using Item = std::pair<double, uint32_t>;
    /** Shortest-path search from one embedded neighbor's chain. */
    struct Search
    {
        std::vector<Label> label;
        std::vector<Item> heap; ///< min-heap on (dist, qubit)

        double
        frontier() const
        {
            return heap.empty() ? kInf : heap.front().first;
        }
    };
    /** Per-qubit root candidacy; valid while epoch matches. */
    struct Root
    {
        double factor;  ///< multiplicative cost noise, >= 1
        uint32_t epoch; ///< placement in which the qubit is feasible
        uint32_t hits;  ///< searches that have settled it
    };
    /** Work counters, flushed to the stats registry once per try. */
    struct Work
    {
        uint64_t rounds = 0;
        uint64_t placements = 0;
        uint64_t searches = 0;
        uint64_t settled = 0;
        uint64_t unbounded = 0;
    };

    const chimera::HardwareGraph &hw_;
    const EmbedParams &params_;
    std::vector<std::vector<uint32_t>> nbrs_; ///< logical adjacency
    std::vector<std::vector<uint32_t>> chains_;
    std::vector<uint32_t> usage_;
    uint32_t round_ = 0;
    double noise_ = 0.2;
    const exec::CancelToken *token_ = nullptr;
    size_t index_ = 0;

    // Active hardware graph, built once: CSR adjacency over active
    // qubits and the active component of each qubit (kNone if off).
    std::vector<uint32_t> adj_start_;
    std::vector<uint32_t> adj_;
    std::vector<uint32_t> comp_;

    // Per-round weight table: level_weight_[u] = base^u.
    double base_ = 1.0;
    std::vector<double> level_weight_;
    double min_weight_ = 1.0;
    bool weight_overflow_ = false;

    // Scratch arena reused by every placement of this try.
    uint32_t epoch_ = 0;
    std::vector<Search> searches_;
    std::vector<Root> roots_;
    std::vector<uint32_t> placed_nbrs_;
    std::vector<uint32_t> touched_;
    std::vector<uint32_t> path_;
    Work work_;

    void
    buildActiveGraph()
    {
        const uint32_t n = static_cast<uint32_t>(hw_.numNodes());
        adj_start_.assign(n + 1, 0);
        for (uint32_t q = 0; q < n; ++q) {
            adj_start_[q] = static_cast<uint32_t>(adj_.size());
            if (!hw_.isActive(q))
                continue;
            for (uint32_t v : hw_.neighbors(q))
                if (hw_.isActive(v))
                    adj_.push_back(v);
        }
        adj_start_[n] = static_cast<uint32_t>(adj_.size());

        comp_.assign(n, kNone);
        uint32_t comps = 0;
        std::vector<uint32_t> stack;
        for (uint32_t s = 0; s < n; ++s) {
            if (!hw_.isActive(s) || comp_[s] != kNone)
                continue;
            comp_[s] = comps;
            stack.push_back(s);
            while (!stack.empty()) {
                uint32_t u = stack.back();
                stack.pop_back();
                for (uint32_t i = adj_start_[u]; i < adj_start_[u + 1];
                     ++i)
                    if (comp_[adj_[i]] == kNone) {
                        comp_[adj_[i]] = comps;
                        stack.push_back(adj_[i]);
                    }
            }
            ++comps;
        }
    }

    /** Start a round's weight table, covering every current usage. */
    void
    beginRound()
    {
        // The penalty base must exceed any possible fresh-path cost so
        // that one overlapped qubit is always worse than any detour
        // through unused qubits (CMR use |V|^usage).  Escalate mildly
        // with the round to shake persistent overlaps.
        base_ = params_.overuse_base > 0.0
                    ? params_.overuse_base
                    : static_cast<double>(hw_.numNodes());
        base_ *= static_cast<double>(1 + round_);
        level_weight_.clear();
        min_weight_ = kInf;
        weight_overflow_ = false;
        uint32_t max_use = 0;
        for (uint32_t u : usage_)
            max_use = std::max(max_use, u);
        while (level_weight_.size() <= max_use)
            addLevel();
    }

    void
    addLevel()
    {
        double w = std::pow(base_,
                            static_cast<double>(level_weight_.size()));
        level_weight_.push_back(w);
        min_weight_ = std::min(min_weight_, w);
        weight_overflow_ = weight_overflow_ || w == kInf;
    }

    /** Weight of active qubit @p q: base^usage. */
    double
    weight(uint32_t q) const
    {
        return level_weight_[usage_[q]];
    }

    void
    use(uint32_t q)
    {
        if (++usage_[q] == level_weight_.size())
            addLevel();
    }

    /**
     * Seed the search of slot @p k from every qubit of @p sources.
     * Label dist is the summed weight of the *interior* qubits on the
     * cheapest path from the source set — the reached qubit's own
     * weight is excluded, so the caller can charge the root qubit
     * exactly once across neighbors.  pred walks back toward the
     * source set and is kNone on the source chain itself.
     */
    void
    startSearch(size_t k, const std::vector<uint32_t> &sources)
    {
        Search &s = searches_[k];
        s.heap.clear();
        for (uint32_t q : sources) {
            s.label[q] = Label{0.0, kNone, epoch_};
            s.heap.emplace_back(0.0, q);
            std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>());
        }
    }

    /**
     * Pop search @p s's frontier.  Returns the qubit it settled, or
     * kNone for a stale heap entry.  Settling order, distances and
     * preds are those of a full Dijkstra from the same sources: the
     * heap orders (dist, qubit) totally and every key is pushed once.
     */
    uint32_t
    settleNext(Search &s)
    {
        std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>());
        auto [d, u] = s.heap.back();
        s.heap.pop_back();
        if (d > s.label[u].dist)
            return kNone;
        // Entering v costs the weight of u (the hop's interior node),
        // except when u is a source-chain qubit.
        double wu = s.label[u].pred == kNone ? 0.0 : weight(u);
        if (wu == kInf)
            return u;
        double nd = d + wu;
        for (uint32_t i = adj_start_[u]; i < adj_start_[u + 1]; ++i) {
            uint32_t v = adj_[i];
            Label &lv = s.label[v];
            if (nd < (lv.epoch == epoch_ ? lv.dist : kInf)) {
                lv = Label{nd, u, epoch_};
                s.heap.emplace_back(nd, v);
                std::push_heap(s.heap.begin(), s.heap.end(),
                               std::greater<>());
            }
        }
        return u;
    }

    /** Noisy root cost of @p q, settled in all @p k searches. */
    double
    rootCost(uint32_t q, size_t k) const
    {
        double c = weight(q);
        for (size_t i = 0; i < k; ++i)
            c += searches_[i].label[q].dist;
        return c * roots_[q].factor;
    }

    /**
     * True when no qubit still unsettled in some search can beat a
     * root of cost @p best: untouched qubits cost at least w_min plus
     * every frontier; a partly settled one at least its own weight
     * plus its settled distances plus the other frontiers, times its
     * noise.  Floating-point sums are monotone and noise is >= 1, so
     * neither bound exceeds the real cost.
     */
    bool
    rootIsFinal(double best, size_t k) const
    {
        double lb = min_weight_;
        for (size_t i = 0; i < k; ++i)
            lb += searches_[i].frontier();
        if (!(lb > best))
            return false;
        for (uint32_t q : touched_) {
            if (roots_[q].hits == k)
                continue;
            double c = weight(q);
            for (size_t i = 0; i < k; ++i) {
                const Search &s = searches_[i];
                const Label &l = s.label[q];
                c += l.epoch == epoch_ ? std::min(l.dist, s.frontier())
                                       : s.frontier();
            }
            if (!(c * roots_[q].factor > best))
                return false;
        }
        return true;
    }

    /** Advance to a fresh placement epoch, resetting stamps on wrap. */
    void
    nextEpoch()
    {
        if (++epoch_ != 0)
            return;
        for (auto &s : searches_)
            for (auto &l : s.label)
                l.epoch = 0;
        for (auto &r : roots_)
            r.epoch = 0;
        epoch_ = 1;
    }

    void
    tearOut(uint32_t v)
    {
        for (uint32_t q : chains_[v])
            --usage_[q];
        chains_[v].clear();
    }

    /** Append one qubit to an existing chain (no-op if present). */
    void
    addToChain(uint32_t u, uint32_t q)
    {
        auto &c = chains_[u];
        if (std::find(c.begin(), c.end(), q) == c.end()) {
            c.push_back(q);
            use(q);
        }
    }

    /** Make chains_[v], already filled, canonical and count its use. */
    void
    install(uint32_t v)
    {
        auto &chain = chains_[v];
        std::sort(chain.begin(), chain.end());
        chain.erase(std::unique(chain.begin(), chain.end()), chain.end());
        for (uint32_t q : chain)
            use(q);
    }

    /**
     * Mark the feasible roots of this placement — the active qubits
     * that every placed neighbor's chain can reach — and draw their
     * noise factors in ascending qubit order.  Returns how many there
     * are.  Every chain is connected (a root plus paths from it, or a
     * path donated next to an existing chain), so it lies in one
     * component, and with finite weights reaches all of it.
     */
    size_t
    drawFeasibleRoots(Rng &rng)
    {
        const uint32_t comp = comp_[chains_[placed_nbrs_[0]][0]];
        for (uint32_t u : placed_nbrs_)
            if (comp_[chains_[u][0]] != comp)
                return 0;
        size_t feasible = 0;
        for (uint32_t q = 0; q < roots_.size(); ++q)
            if (comp_[q] == comp) {
                roots_[q] = Root{1.0 + noise_ * rng.uniform(), epoch_, 0};
                ++feasible;
            }
        return feasible;
    }

    /** Re-place vertex @p v given the current chains of its neighbors. */
    bool
    placeVertex(uint32_t v, Rng &rng)
    {
        ++work_.placements;
        tearOut(v);

        placed_nbrs_.clear();
        for (uint32_t u : nbrs_[v])
            if (!chains_[u].empty())
                placed_nbrs_.push_back(u);

        if (placed_nbrs_.empty()) {
            // Free placement: pick a random least-used active qubit.
            uint32_t best = kNone;
            uint32_t best_use = UINT32_MAX;
            uint64_t seen = 0;
            for (uint32_t q = 0; q < hw_.numNodes(); ++q) {
                if (!hw_.isActive(q))
                    continue;
                if (usage_[q] < best_use) {
                    best_use = usage_[q];
                    best = q;
                    seen = 1;
                } else if (usage_[q] == best_use) {
                    // Reservoir-sample among ties.
                    ++seen;
                    if (rng.below(seen) == 0)
                        best = q;
                }
            }
            if (best == kNone)
                return false;
            chains_[v].push_back(best);
            install(v);
            return true;
        }

        // Root minimizing own weight + total interior connection cost,
        // found by one search per placed neighbor.  Costs carry
        // multiplicative noise: the hardware graph is highly symmetric
        // and many near-equal placements exist; deterministic selection
        // reliably traps the search in local minima (e.g. a walled-in
        // singleton chain whose only overlap spot never moves), while
        // noisy selection lets the overlap wander until a re-placement
        // cascade resolves it.
        //
        // The searches advance interleaved, smallest frontier first, and
        // stop as soon as the best root so far provably cannot be beaten
        // (rootIsFinal); ties go to the lowest qubit, as in an ascending
        // scan.  An overflowed weight table blocks paths, so
        // reachability no longer follows components: the searches then
        // run to exhaustion and roots are drawn and scored afterwards.
        const size_t k = placed_nbrs_.size();
        nextEpoch();
        while (searches_.size() < k)
            searches_.push_back(Search{
                std::vector<Label>(hw_.numNodes(), Label{0.0, kNone, 0}),
                {}});
        const bool bounded = !weight_overflow_;
        size_t feasible = 0;
        if (bounded) {
            feasible = drawFeasibleRoots(rng);
            if (feasible == 0)
                return false;
        } else {
            ++work_.unbounded;
        }
        for (size_t i = 0; i < k; ++i)
            startSearch(i, chains_[placed_nbrs_[i]]);
        work_.searches += k;

        uint32_t root = kNone;
        double best_cost = kInf;
        auto consider = [&](uint32_t q) {
            double c = rootCost(q, k);
            if (c < best_cost ||
                (c == best_cost && c != kInf && q < root)) {
                best_cost = c;
                root = q;
            }
        };
        touched_.clear();
        size_t scored = 0;
        uint64_t settled = 0;
        uint64_t next_check = 16;
        for (;;) {
            Search *next = nullptr;
            for (size_t i = 0; i < k; ++i)
                if (!searches_[i].heap.empty() &&
                    (!next || searches_[i].frontier() < next->frontier()))
                    next = &searches_[i];
            if (!next)
                break;
            uint32_t q = settleNext(*next);
            if (q == kNone)
                continue;
            ++settled;
            if (!bounded)
                continue;
            Root &r = roots_[q];
            if (r.epoch == epoch_) {
                if (r.hits++ == 0)
                    touched_.push_back(q);
                if (r.hits == k) {
                    consider(q);
                    if (++scored == feasible)
                        break;
                }
            }
            if (settled >= next_check) {
                next_check += next_check / 4;
                if (root != kNone && rootIsFinal(best_cost, k))
                    break;
            }
        }
        if (!bounded) {
            for (uint32_t q = 0; q < roots_.size(); ++q) {
                if (comp_[q] == kNone || weight(q) == kInf)
                    continue;
                bool reached = true;
                for (size_t i = 0; i < k && reached; ++i)
                    reached = searches_[i].label[q].epoch == epoch_;
                if (!reached)
                    continue;
                roots_[q].factor = 1.0 + noise_ * rng.uniform();
                consider(q);
            }
        }
        work_.settled += settled;
        if (root == kNone)
            return false;

        // Chain = root plus the root-side half of each connection path;
        // the neighbor-side half is donated to the neighbor's chain
        // (CMR's path splitting).  Without the split, freshly placed
        // vertices absorb entire paths and balloon while their
        // neighbors stay as walled-in singletons.
        auto &chain = chains_[v];
        chain.push_back(root);
        for (size_t i = 0; i < k; ++i) {
            const auto &label = searches_[i].label;
            path_.clear(); // root side first
            for (uint32_t cur = label[root].pred;
                 cur != kNone && label[cur].pred != kNone;
                 cur = label[cur].pred)
                path_.push_back(cur);
            size_t keep = (path_.size() + 1) / 2;
            for (size_t j = 0; j < keep; ++j)
                chain.push_back(path_[j]);
            for (size_t j = keep; j < path_.size(); ++j)
                addToChain(placed_nbrs_[i], path_[j]);
        }
        install(v);
        return true;
    }

    std::optional<Embedding>
    tryOnce(Rng &rng)
    {
        for (auto &c : chains_)
            c.clear();
        std::fill(usage_.begin(), usage_.end(), 0);

        std::vector<uint32_t> order(chains_.size());
        for (uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        // Place high-degree vertices first; random tie-break.
        rng.shuffle(order);
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return nbrs_[a].size() > nbrs_[b].size();
                         });

        std::optional<Embedding> feasible;
        size_t feasible_qubits = SIZE_MAX;
        uint32_t stale = 0;
        size_t best_overfull = SIZE_MAX;
        uint32_t no_progress = 0;

        for (round_ = 0; round_ < params_.rounds; ++round_) {
            // A lower-indexed try already embedded: this result could
            // never win, so stop paying for it.
            if (token_ && token_->cancelled(index_))
                return std::nullopt;
            // Root-cost noise anneals away over the rounds: early
            // exploration, late convergence.
            noise_ = 0.2 / (1.0 + round_);
            beginRound();
            ++work_.rounds;

            // Early rounds re-place everything.  Later rounds repair
            // minimally: only the chains sitting on overfull qubits,
            // so converged structure stays put; the logical
            // neighborhood joins in only after repeated non-progress
            // (widening the search), and a full re-place round fires
            // as a last resort.
            std::vector<uint32_t> to_place;
            if (round_ < 3 || feasible || no_progress >= 8) {
                to_place = order;
                if (no_progress >= 8)
                    no_progress = 0;
            } else {
                std::vector<bool> hit(chains_.size(), false);
                for (uint32_t v = 0; v < chains_.size(); ++v)
                    for (uint32_t q : chains_[v])
                        if (usage_[q] > 1)
                            hit[v] = true;
                bool widen = no_progress >= 4;
                for (uint32_t v = 0; v < chains_.size(); ++v) {
                    if (!hit[v])
                        continue;
                    to_place.push_back(v);
                    if (widen)
                        for (uint32_t u : nbrs_[v])
                            to_place.push_back(u);
                }
                std::sort(to_place.begin(), to_place.end());
                to_place.erase(
                    std::unique(to_place.begin(), to_place.end()),
                    to_place.end());
                if (to_place.empty())
                    to_place = order;
            }
            rng.shuffle(to_place);

            for (uint32_t v : to_place)
                if (!placeVertex(v, rng))
                    return feasible;

            uint32_t max_use = 0;
            size_t total = 0;
            size_t overfull = 0;
            for (uint32_t q = 0; q < usage_.size(); ++q) {
                max_use = std::max(max_use, usage_[q]);
                if (usage_[q] > 1)
                    ++overfull;
            }
            for (const auto &c : chains_)
                total += c.size();

            if (overfull < best_overfull) {
                best_overfull = overfull;
                no_progress = 0;
            } else {
                ++no_progress;
            }

            if (max_use <= 1) {
                if (total < feasible_qubits) {
                    feasible_qubits = total;
                    Embedding emb;
                    emb.chains = chains_;
                    feasible = std::move(emb);
                    stale = 0;
                } else {
                    ++stale;
                }
                // A couple of non-improving feasible rounds: stop.
                if (!params_.minimize_qubits || stale >= 2)
                    break;
            }
        }
        return feasible;
    }
};

} // namespace

std::optional<Embedding>
findEmbedding(const std::vector<std::pair<uint32_t, uint32_t>>
                  &logical_edges,
              size_t num_logical, const chimera::HardwareGraph &hw,
              const EmbedParams &params)
{
    if (num_logical == 0)
        return Embedding{};
    stats::ScopedTimer timer("embed.minorminer.time");

    // Independent restarts race across workers; each try already runs
    // its own qubit-minimization rounds, so take the first success
    // rather than paying for every restart.  The lowest-indexed
    // success wins — exactly the try the sequential loop would have
    // returned — so the embedding is thread-count invariant.
    const uint32_t tries = std::max<uint32_t>(1, params.tries);
    std::vector<std::optional<Embedding>> results(tries);
    size_t winner = exec::firstSuccess(
        tries, params.threads,
        [&](size_t t, const exec::CancelToken &token) {
            Embedder e(logical_edges, num_logical, hw, params);
            results[t] =
                e.attempt(Rng::streamAt(params.seed, t), token, t);
            return results[t].has_value();
        });
    std::optional<Embedding> emb;
    if (winner != exec::CancelToken::kNone)
        emb = std::move(results[winner]);
    if (emb) {
        std::string err;
        if (!verifyEmbedding(*emb, logical_edges, hw, &err))
            panic("embedder produced an invalid embedding: %s",
                  err.c_str());
        if (stats::Registry::global().enabled()) {
            for (const auto &chain : emb->chains)
                stats::record("embed.minorminer.chain_len",
                              static_cast<double>(chain.size()));
            stats::gauge("embed.minorminer.logical_vars",
                         emb->numLogical());
            stats::gauge("embed.minorminer.physical_qubits",
                         emb->totalQubits());
            stats::gauge("embed.minorminer.max_chain_len",
                         emb->maxChainLength());
        }
    } else {
        stats::count("embed.minorminer.failures");
    }
    return emb;
}

} // namespace qac::embed
