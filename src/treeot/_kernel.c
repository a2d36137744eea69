/* C transcription of the annealing, random-tree and transport-plan kernels
 * in _kernels.py.
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
    PLAN_NO_MATCH = 5,
    PLAN_NO_END = 6,
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

/* propose_root of _kernels.py: the candidate root and the weight of its edge
 * to root. Returns CHAIN_OK or a CHAIN_* error code. */
static int propose_root(const int64_t *indptr, const int64_t *indices, const double *adj_w,
                        int64_t root, bitgen_t *bg, int64_t *new_root, double *w_added)
{
    const int64_t lo = indptr[root];
    const int64_t deg = indptr[root + 1] - lo;
    if (deg < 1)
        return CHAIN_NO_NEIGHBOUR;
    if (deg > (int64_t)UINT32_MAX)
        return CHAIN_DEGREE_TOO_LARGE;
    const int64_t k = bounded_index(bg, deg);
    *new_root = indices[lo + k];
    *w_added = adj_w[lo + k];
    return CHAIN_OK;
}

/* swap_delta of _kernels.py: current cost minus candidate cost, on the cycle. */
static double swap_delta(const int64_t *parent, const double *wpar, const double *xi_cum,
                         int64_t root, int64_t new_root, double w_added)
{
    const double xr = xi_cum[new_root];
    double h = (wpar[new_root] - w_added) * fabs(xr);
    for (int64_t v = parent[new_root]; v != root; v = parent[v])
        h += wpar[v] * (fabs(xi_cum[v]) - fabs(xi_cum[v] - xr));
    return h;
}

/* apply_swap of _kernels.py: make new_root the root, in place. */
static void apply_swap(int64_t *parent, double *wpar, double *xi_cum, int64_t root,
                       int64_t new_root, double w_added)
{
    const double xr = xi_cum[new_root];
    for (int64_t v = parent[new_root]; v != root; v = parent[v])
        xi_cum[v] -= xr;
    xi_cum[root] = -xr;
    xi_cum[new_root] = 0.0;
    parent[root] = new_root;
    wpar[root] = w_added;
    parent[new_root] = -1;
    wpar[new_root] = 0.0;
}

/* update_beta of _kernels.py. */
static double update_beta(double beta, int64_t bits_sum, int64_t bits_seen, int64_t window,
                          double eta, double target_accept)
{
    if (bits_seen >= window) {
        const double rate = (double)bits_sum / (double)window;
        beta = beta * (1.0 + eta * (rate - target_accept));
    }
    return beta;
}

/* anneal_chain of _kernels.py. bits holds window slots, work_i 2n and
 * work_d n. Results: out_d = {best, current, max_drift} and
 * out_i = {root, best_root, records, iters_done}. Returns a CHAIN_* code. */
int treeot_anneal_chain(
    int64_t n, int64_t *parent, double *wpar, double *xi_cum, int64_t root,
    const int64_t *indptr, const int64_t *indices, const double *adj_w, const double *xi_node,
    int64_t max_iters, double beta0, double target_accept, double eta, int64_t window,
    int64_t record_every, int64_t recompute_every, double target_cost, bitgen_t *bg,
    int64_t *best_parent, double *best_wpar, int64_t *trace_iter, double *trace_cur,
    double *trace_best, double *trace_beta, double *trace_acc, int64_t *bits, int64_t *work_i,
    double *work_d, double *out_d, int64_t *out_i)
{
    const size_t parent_bytes = (size_t)n * sizeof *parent;
    const size_t wpar_bytes = (size_t)n * sizeof *wpar;
    double current = tree_cost(n, parent, wpar, xi_cum);
    double best = current;
    int64_t best_root = root;
    memcpy(best_parent, parent, parent_bytes);
    memcpy(best_wpar, wpar, wpar_bytes);

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
            int64_t new_root;
            double w_added;
            status = propose_root(indptr, indices, adj_w, root, bg, &new_root, &w_added);
            if (status != CHAIN_OK)
                break;
            const double u = bg->next_double(bg->state);
            const double h = swap_delta(parent, wpar, xi_cum, root, new_root, w_added);

            const int accept = h >= 0.0 || u <= exp(beta * h);
            if (accept) {
                apply_swap(parent, wpar, xi_cum, root, new_root, w_added);
                root = new_root;
                current -= h;
                if (current < best) {
                    best = current;
                    best_root = root;
                    memcpy(best_parent, parent, parent_bytes);
                    memcpy(best_wpar, wpar, wpar_bytes);
                }
            }

            const int64_t slot = (it - 1) % window;
            if (bits_seen >= window)
                bits_sum -= bits[slot];
            bits[slot] = accept ? 1 : 0;
            bits_sum += bits[slot];
            bits_seen++;
            beta = update_beta(beta, bits_sum, bits_seen, window, eta, target_accept);

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
                    memcpy(best_wpar, wpar, wpar_bytes);
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

/* _heap_push of _kernels.py: push v onto the min-heap heap[0..size). */
static int64_t heap_push(int64_t *heap, int64_t size, int64_t v)
{
    int64_t i = size;
    while (i > 0) {
        const int64_t up = (i - 1) / 2;
        if (heap[up] <= v)
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = v;
    return size + 1;
}

/* _heap_pop of _kernels.py: drop the smallest entry of heap[0..size). */
static int64_t heap_pop(int64_t *heap, int64_t size)
{
    size--;
    const int64_t v = heap[size];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= size)
            break;
        if (c + 1 < size && heap[c + 1] < heap[c])
            c++;
        if (v <= heap[c])
            break;
        heap[i] = heap[c];
        i = c;
    }
    if (size > 0)
        heap[i] = v;
    return size;
}

/* _prune of _kernels.py. */
static int64_t prune(int64_t v, const int64_t *parent, const double *xi, uint8_t *alive,
                     int64_t *active, int64_t *heap, int64_t size)
{
    while (v >= 0 && alive[v] && active[v] == 0 && xi[v] == 0.0) {
        alive[v] = 0;
        v = parent[v];
        if (v >= 0) {
            active[v] -= 1;
            if (active[v] == 0 && xi[v] != 0.0)
                size = heap_push(heap, size, v);
        }
    }
    return size;
}

/* dp_plan of _kernels.py. xi is changed in place; xi_cum and alive hold n
 * slots, work_i 4n (live child counts, heap and two BFS layers), out_x, out_y
 * and out_m 4n + 16. out_k receives {count, u}. Returns 0, PLAN_NO_MATCH or
 * PLAN_NO_END. */
int treeot_dp_plan(
    int64_t n, const int64_t *parent, const int64_t *order, const int64_t *child_ptr,
    const int64_t *child_idx, double *xi, double zero_tol, double *xi_cum, uint8_t *alive,
    int64_t *work_i, int64_t *out_x, int64_t *out_y, double *out_m, int64_t *out_k)
{
    int64_t count = 0;
    out_k[0] = 0;
    out_k[1] = -1;
    if (n == 0)
        return CHAIN_OK;
    int64_t *active = work_i, *heap = work_i + n;
    int64_t *layer = work_i + 2 * n, *next_layer = work_i + 3 * n;
    const int64_t root = order[n - 1];
    for (int64_t v = 0; v < n; v++) {
        if (fabs(xi[v]) <= zero_tol)
            xi[v] = 0.0;
        xi_cum[v] = xi[v];
    }
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i], p = parent[v];
        if (p >= 0)
            xi_cum[p] += xi_cum[v];
    }
    for (int64_t v = 0; v < n; v++)
        if (fabs(xi_cum[v]) <= zero_tol)
            xi_cum[v] = 0.0;
    xi_cum[root] = 0.0;

    int64_t size = 0;
    for (int64_t v = 0; v < n; v++) {
        alive[v] = 1;
        active[v] = child_ptr[v + 1] - child_ptr[v];
        if (active[v] == 0 && xi[v] != 0.0)
            size = heap_push(heap, size, v);
    }
    for (int64_t v = 0; v < n; v++)
        size = prune(v, parent, xi, alive, active, heap, size);

    int status = PLAN_NO_END;
    for (int64_t step = 0; step < 4 * n + 16; step++) {
        while (size > 0 && !alive[heap[0]])
            size = heap_pop(heap, size);
        if (size == 0) {
            status = CHAIN_OK;
            break;
        }
        const int64_t x = heap[0];
        if (x == root) {
            status = PLAN_NO_MATCH;
            break;
        }
        const double s = xi[x] > 0.0 ? 1.0 : -1.0;
        double m = fabs(xi[x]);

        int64_t below = x, u = parent[x];
        while (u != root && xi_cum[u] != 0.0) {
            const double diff = xi_cum[u] - xi_cum[below];
            if (fabs(diff) > zero_tol && s * diff < 0.0)
                break;
            if (fabs(xi_cum[u]) < m)
                m = fabs(xi_cum[u]);
            below = u;
            u = parent[u];
        }

        int64_t y = -1, width = 1;
        layer[0] = u;
        while (width > 0) {
            for (int64_t i = 0; i < width; i++) {
                const int64_t v = layer[i];
                if (s * xi[v] < 0.0 && (y < 0 || v < y))
                    y = v;
            }
            if (y >= 0)
                break;
            int64_t grown = 0;
            for (int64_t i = 0; i < width; i++) {
                const int64_t v = layer[i];
                for (int64_t j = child_ptr[v]; j < child_ptr[v + 1]; j++) {
                    const int64_t c = child_idx[j];
                    if (alive[c] && s * xi_cum[c] < 0.0)
                        next_layer[grown++] = c;
                }
            }
            int64_t *swap = layer;
            layer = next_layer;
            next_layer = swap;
            width = grown;
        }
        if (y < 0) {
            out_k[1] = u;
            status = PLAN_NO_MATCH;
            break;
        }

        for (int64_t v = y; v != u; v = parent[v])
            if (fabs(xi_cum[v]) < m)
                m = fabs(xi_cum[v]);
        if (fabs(xi[y]) < m)
            m = fabs(xi[y]);

        out_x[count] = s > 0.0 ? x : y;
        out_y[count] = s > 0.0 ? y : x;
        out_m[count] = m;
        count++;
        xi[x] -= s * m;
        xi[y] += s * m;
        if (fabs(xi[x]) <= zero_tol)
            xi[x] = 0.0;
        if (fabs(xi[y]) <= zero_tol)
            xi[y] = 0.0;
        for (int64_t v = x; v != u; v = parent[v]) {
            xi_cum[v] -= s * m;
            if (fabs(xi_cum[v]) <= zero_tol)
                xi_cum[v] = 0.0;
        }
        for (int64_t v = y; v != u; v = parent[v]) {
            xi_cum[v] += s * m;
            if (fabs(xi_cum[v]) <= zero_tol)
                xi_cum[v] = 0.0;
        }
        size = prune(x, parent, xi, alive, active, heap, size);
        size = prune(y, parent, xi, alive, active, heap, size);
    }
    out_k[0] = count;
    return status;
}
