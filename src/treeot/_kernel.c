/* C transcription of the annealing and random-tree kernels in _kernels.py.
 *
 * Every floating-point operation happens in the same order as in the Python
 * kernels, and the library is built with -ffp-contract=off and without
 * fast-math, so no multiply-add is fused and the results are bit-identical.
 * Random numbers come from the caller's numpy bit generator, drawn exactly as
 * Generator.integers(0, k) and Generator.random() draw them, so the chain and
 * the tree walk consume the same stream as the Python kernels.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Layout of numpy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum {
    CHAIN_OK = 0,
    CHAIN_NO_NEIGHBOUR = 1,
    CHAIN_DEGREE_TOO_LARGE = 2,
    WILSON_BAD_VERTEX_COUNT = 3,
    WILSON_NO_NEIGHBOUR = 4,
};

/* Generator.integers(0, deg) for int64 and 1 <= deg < 2^32: no draw
 * when deg == 1, otherwise Lemire's bounded rejection on 32-bit draws
 * (numpy's buffered_bounded_lemire_uint32 with rng = deg - 1). */
static int64_t bounded_index(bitgen_t *bg, int64_t deg)
{
    if (deg == 1)
        return 0;
    const uint32_t rng_excl = (uint32_t)deg;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - (rng_excl - 1)) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* Fresh subtree sums of xi_node into out; pending and queue hold n each. */
static void recompute_cumulative(int64_t n, const int64_t *parent, const double *xi_node,
                                 double *out, int64_t *pending, int64_t *queue)
{
    memset(pending, 0, (size_t)n * sizeof *pending);
    for (int64_t v = 0; v < n; v++)
        if (parent[v] >= 0)
            pending[parent[v]] += 1;
    memcpy(out, xi_node, (size_t)n * sizeof *out);
    int64_t head = 0, tail = 0;
    for (int64_t v = 0; v < n; v++)
        if (pending[v] == 0)
            queue[tail++] = v;
    while (head < tail) {
        int64_t v = queue[head++];
        int64_t p = parent[v];
        if (p >= 0) {
            out[p] += out[v];
            pending[p] -= 1;
            if (pending[p] == 0)
                queue[tail++] = p;
        }
    }
}

static double tree_cost(int64_t n, const int64_t *parent, const double *wpar, const double *xi_cum)
{
    double total = 0.0;
    for (int64_t v = 0; v < n; v++)
        if (parent[v] >= 0)
            total += wpar[v] * fabs(xi_cum[v]);
    return total;
}

/* anneal_chain of _kernels.py. bits holds window slots, work_i 2n and
 * work_d n. Results: out_d = {best, current, max_drift} and
 * out_i = {root, best_root, records, iters_done}. Returns a CHAIN_* code. */
int treeot_anneal_chain(
    int64_t n, int64_t *parent, double *wpar, double *xi_cum, int64_t root,
    const int64_t *indptr, const int64_t *indices, const double *adj_w, const double *xi_node,
    int64_t max_iters, double beta0, double target_accept, double eta, int64_t window,
    int64_t record_every, int64_t recompute_every, double target_cost, bitgen_t *bg,
    int64_t *best_parent, int64_t *trace_iter, double *trace_cur, double *trace_best,
    double *trace_beta, double *trace_acc, int64_t *bits, int64_t *work_i, double *work_d,
    double *out_d, int64_t *out_i)
{
    const size_t parent_bytes = (size_t)n * sizeof *parent;
    double current = tree_cost(n, parent, wpar, xi_cum);
    double best = current;
    int64_t best_root = root;
    memcpy(best_parent, parent, parent_bytes);

    memset(bits, 0, (size_t)window * sizeof *bits);
    int64_t bits_sum = 0, bits_seen = 0;
    double beta = beta0, max_drift = 0.0;
    int status = CHAIN_OK;

    int64_t records = 0;
    trace_iter[records] = 0;
    trace_cur[records] = current;
    trace_best[records] = best;
    trace_beta[records] = beta;
    trace_acc[records] = 0.0;
    records++;

    int64_t iters_done = 0;
    const int have_target = !isnan(target_cost);
    if (!(have_target && best <= target_cost + 1e-9)) {
        for (int64_t it = 1; it <= max_iters; it++) {
            const int64_t lo = indptr[root];
            const int64_t deg = indptr[root + 1] - lo;
            if (deg < 1) {
                status = CHAIN_NO_NEIGHBOUR;
                break;
            }
            if (deg > (int64_t)UINT32_MAX) {
                status = CHAIN_DEGREE_TOO_LARGE;
                break;
            }
            const int64_t k = bounded_index(bg, deg);
            const int64_t new_root = indices[lo + k];
            const double w_added = adj_w[lo + k];
            const double u = bg->next_double(bg->state);

            const double xr = xi_cum[new_root];
            double h = (wpar[new_root] - w_added) * fabs(xr);
            for (int64_t v = parent[new_root]; v != root; v = parent[v])
                h += wpar[v] * (fabs(xi_cum[v]) - fabs(xi_cum[v] - xr));

            const int accept = h >= 0.0 || u <= exp(beta * h);
            if (accept) {
                for (int64_t v = parent[new_root]; v != root; v = parent[v])
                    xi_cum[v] -= xr;
                xi_cum[root] = -xr;
                xi_cum[new_root] = 0.0;
                parent[root] = new_root;
                wpar[root] = w_added;
                parent[new_root] = -1;
                wpar[new_root] = 0.0;
                root = new_root;
                current -= h;
                if (current < best) {
                    best = current;
                    best_root = root;
                    memcpy(best_parent, parent, parent_bytes);
                }
            }

            const int64_t slot = (it - 1) % window;
            if (bits_seen >= window)
                bits_sum -= bits[slot];
            bits[slot] = accept ? 1 : 0;
            bits_sum += bits[slot];
            bits_seen++;
            if (bits_seen >= window) {
                const double rate = (double)bits_sum / (double)window;
                beta = beta * (1.0 + eta * (rate - target_accept));
            }

            iters_done = it;

            if (recompute_every > 0 && it % recompute_every == 0) {
                recompute_cumulative(n, parent, xi_node, work_d, work_i, work_i + n);
                const double fresh_cost = tree_cost(n, parent, wpar, work_d);
                const double drift = fabs(fresh_cost - current);
                if (drift > max_drift)
                    max_drift = drift;
                memcpy(xi_cum, work_d, (size_t)n * sizeof *xi_cum);
                current = fresh_cost;
                if (current < best) {
                    best = current;
                    best_root = root;
                    memcpy(best_parent, parent, parent_bytes);
                }
            }

            const int stop = have_target && best <= target_cost + 1e-9;
            if (it % record_every == 0 || it == max_iters || stop) {
                double rate_now = 0.0;
                if (bits_seen > 0) {
                    const int64_t seen = bits_seen < window ? bits_seen : window;
                    rate_now = (double)bits_sum / (double)seen;
                }
                trace_iter[records] = it;
                trace_cur[records] = current;
                trace_best[records] = best;
                trace_beta[records] = beta;
                trace_acc[records] = rate_now;
                records++;
            }
            if (stop)
                break;
        }
    }

    out_d[0] = best;
    out_d[1] = current;
    out_d[2] = max_drift;
    out_i[0] = root;
    out_i[1] = best_root;
    out_i[2] = records;
    out_i[3] = iters_done;
    return status;
}

/* wilson_tree of _kernels.py: a uniform random spanning tree of the CSR graph
 * into parent and wpar. in_tree holds n bytes; *root_out receives the root.
 * Returns CHAIN_OK or a WILSON_* / CHAIN_DEGREE_TOO_LARGE code. */
int treeot_wilson(
    int64_t n, const int64_t *indptr, const int64_t *indices, const double *adj_w,
    bitgen_t *bg, int64_t *parent, double *wpar, uint8_t *in_tree, int64_t *root_out)
{
    if (n < 1 || n > (int64_t)UINT32_MAX)
        return WILSON_BAD_VERTEX_COUNT;
    const int64_t root = bounded_index(bg, n);
    memset(in_tree, 0, (size_t)n);
    in_tree[root] = 1;
    parent[root] = -1;
    wpar[root] = 0.0;
    for (int64_t start = 0; start < n; start++) {
        for (int64_t v = start; !in_tree[v]; v = parent[v]) {
            const int64_t lo = indptr[v];
            const int64_t deg = indptr[v + 1] - lo;
            if (deg < 1)
                return WILSON_NO_NEIGHBOUR;
            if (deg > (int64_t)UINT32_MAX)
                return CHAIN_DEGREE_TOO_LARGE;
            const int64_t k = bounded_index(bg, deg);
            parent[v] = indices[lo + k];
            wpar[v] = adj_w[lo + k];
        }
        for (int64_t v = start; !in_tree[v]; v = parent[v])
            in_tree[v] = 1;
    }
    *root_out = root;
    return CHAIN_OK;
}
