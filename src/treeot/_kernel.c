/* C transcription of the annealing, random-tree, tree-pass, transport-plan,
 * network-simplex and pair-distance kernels in _kernels.py.
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
    FLOW_BAD_COST = 7,
    FLOW_BUDGET = 8,
    FLOW_INFEASIBLE = 9,
    TREE_NOT_ROOTED = 10,
    TREE_BAD_PARENT = 11,
    TREE_UNREACHED = 12,
    STOP_MAX_ITERS = 13,
    STOP_TARGET = 14,
    STOP_CERTIFIED = 15,
    TREE_PAIR_APART = 16,
    PATH_BAD_WEIGHT = 17,
    PATH_UNREACHED = 18,
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

/* Fresh subtree sums of xi_node into out; pending and queue hold n each, and
 * queue ends as the leaves-first order (root last) of the sums. */
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

/* tree_potential of _kernels.py, into u (zero on entry). */
static void tree_potential(int64_t n, const int64_t *parent, const int64_t *order,
                           const double *wpar, const double *xi_cum, double sign_at_zero,
                           double *u)
{
    for (int64_t i = n - 1; i >= 0; i--) {
        const int64_t v = order[i], p = parent[v];
        if (p < 0)
            continue;
        const double s = xi_cum[v] == 0.0 ? sign_at_zero : (xi_cum[v] > 0.0 ? 1.0 : -1.0);
        u[v] = u[p] + wpar[v] * s;
    }
}

/* certify of _kernels.py: 1 when the tree potential of the spanning tree
 * (parent, wpar) is 1-Lipschitz within cert_rtol on every CSR arc, else 0.
 * work_d holds 2n (the sums, then the potential) and work_i 2n. */
static int certify(int64_t n, const int64_t *parent, const double *wpar, const int64_t *indptr,
                   const int64_t *indices, const double *adj_w, const double *xi_node,
                   double cert_rtol, double *work_d, int64_t *work_i)
{
    double *xi_cum = work_d, *u = work_d + n;
    const int64_t *queue = work_i + n;
    recompute_cumulative(n, parent, xi_node, xi_cum, work_i, work_i + n);
    memset(u, 0, (size_t)n * sizeof *u);
    tree_potential(n, parent, queue, wpar, xi_cum, 1.0, u);
    for (int64_t a = 0; a < n; a++)
        for (int64_t j = indptr[a]; j < indptr[a + 1]; j++)
            if (fabs(u[a] - u[indices[j]]) > adj_w[j] * (1.0 + cert_rtol))
                return 0;
    return 1;
}

/* exp(x) as the Metropolis test of anneal_chain reads it. Below -746,
 * e^x is under half the least subnormal, so exp returns +0, but only after
 * glibc's slow underflow path; 0.0 is returned directly there. (The draw u
 * is a multiple of 2^-53, so u <= 0.0 decides as u <= exp(x) would even
 * for an exp that rounded up to the least subnormal.) */
static double accept_bound(double x)
{
    return x < -746.0 ? 0.0 : exp(x);
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

/* anneal_chain of _kernels.py, with certify's cert_rtol passed in. bits
 * holds window slots, work_i 2n and work_d 2n. Results: out_d = {best,
 * current, max_drift} and out_i = {root, best_root, records, iters_done,
 * stop}, stop a STOP_* code. Returns a CHAIN_* code.
 * The window slot and the record and recompute schedules are counters, not
 * remainders of it: slot == (it - 1) % window, and to_record (to_recompute)
 * reaches 0 exactly when it is a multiple of record_every (recompute_every,
 * never when that is not positive). */
int treeot_anneal_chain(
    int64_t n, int64_t *parent, double *wpar, double *xi_cum, int64_t root,
    const int64_t *indptr, const int64_t *indices, const double *adj_w, const double *xi_node,
    int64_t max_iters, double beta0, double target_accept, double eta, int64_t window,
    int64_t record_every, int64_t recompute_every, double target_cost, double cert_rtol,
    bitgen_t *bg,
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

    int64_t iters_done = 0, slot = 0, to_record = record_every, to_recompute = recompute_every;
    const int have_target = !isnan(target_cost);
    int stop = STOP_MAX_ITERS;
    if (have_target && best <= target_cost + 1e-9)
        stop = STOP_TARGET;
    else if (certify(n, best_parent, best_wpar, indptr, indices, adj_w, xi_node, cert_rtol,
                     work_d, work_i))
        stop = STOP_CERTIFIED;
    if (stop == STOP_MAX_ITERS) {
        double checked = best;
        for (int64_t it = 1; it <= max_iters; it++) {
            int64_t new_root;
            double w_added;
            status = propose_root(indptr, indices, adj_w, root, bg, &new_root, &w_added);
            if (status != CHAIN_OK)
                break;
            const double u = bg->next_double(bg->state);
            const double h = swap_delta(parent, wpar, xi_cum, root, new_root, w_added);

            const int accept = h >= 0.0 || u <= accept_bound(beta * h);
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

            if (bits_seen >= window)
                bits_sum -= bits[slot];
            bits[slot] = accept ? 1 : 0;
            bits_sum += bits[slot];
            bits_seen++;
            if (++slot == window)
                slot = 0;
            beta = update_beta(beta, bits_sum, bits_seen, window, eta, target_accept);

            iters_done = it;

            if (--to_recompute == 0) {
                to_recompute = recompute_every;
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

            const int on_target = have_target && best <= target_cost + 1e-9;
            const int due = --to_record == 0;
            if (due)
                to_record = record_every;
            if (due || it == max_iters || on_target) {
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
                if (on_target) {
                    stop = STOP_TARGET;
                    break;
                }
                if (best < checked) {
                    checked = best;
                    if (certify(n, best_parent, best_wpar, indptr, indices, adj_w, xi_node,
                                cert_rtol, work_d, work_i)) {
                        stop = STOP_CERTIFIED;
                        break;
                    }
                }
            }
        }
    }

    out_d[0] = best;
    out_d[1] = current;
    out_d[2] = max_drift;
    out_i[0] = root;
    out_i[1] = best_root;
    out_i[2] = records;
    out_i[3] = iters_done;
    out_i[4] = stop;
    return status;
}

/* wilson_tree of _kernels.py: a uniform random spanning tree of the CSR graph
 * into parent and wpar. in_tree holds n bytes; *root_out receives the root.
 * Returns CHAIN_OK or a WILSON_* / CHAIN_DEGREE_TOO_LARGE code. */
static int wilson(int64_t n, const int64_t *indptr, const int64_t *indices, const double *adj_w,
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

int treeot_wilson(
    int64_t n, const int64_t *indptr, const int64_t *indices, const double *adj_w,
    bitgen_t *bg, int64_t *parent, double *wpar, uint8_t *in_tree, int64_t *root_out)
{
    return wilson(n, indptr, indices, adj_w, bg, parent, wpar, in_tree, root_out);
}

/* tree_order of _kernels.py: order (leaves first, root last) and depth of
 * the tree that parent roots at root. work_i holds 4n + 1 slots: the child
 * CSR (child_ptr, child_idx), the counting sort's fill cursors and the
 * walk's stack. Returns CHAIN_OK or a TREE_* code; with parent[root] == -1
 * and every link in range no vertex is pushed twice, so the stack and order
 * stay within n slots. */
static int tree_order(int64_t n, const int64_t *parent, int64_t root, int64_t *order,
                      int64_t *depth, int64_t *work_i)
{
    if (root < 0 || root >= n || parent[root] != -1)
        return TREE_NOT_ROOTED;
    int64_t *child_ptr = work_i, *child_idx = work_i + n + 1;
    int64_t *fill = child_idx + n, *stack = fill + n;
    memset(child_ptr, 0, (size_t)(n + 1) * sizeof *child_ptr);
    for (int64_t v = 0; v < n; v++) {
        const int64_t p = parent[v];
        if (p < -1 || p >= n)
            return TREE_BAD_PARENT;
        if (p >= 0)
            child_ptr[p + 1]++;
    }
    for (int64_t v = 0; v < n; v++)
        child_ptr[v + 1] += child_ptr[v];
    memcpy(fill, child_ptr, (size_t)n * sizeof *fill);
    for (int64_t v = 0; v < n; v++)
        if (parent[v] >= 0)
            child_idx[fill[parent[v]]++] = v;

    depth[root] = 0;
    stack[0] = root;
    int64_t top = 1, pos = n;
    while (top > 0) {
        const int64_t v = stack[--top];
        order[--pos] = v;
        for (int64_t j = child_ptr[v]; j < child_ptr[v + 1]; j++) {
            const int64_t c = child_idx[j];
            depth[c] = depth[v] + 1;
            stack[top++] = c;
        }
    }
    return pos ? TREE_UNREACHED : CHAIN_OK;
}

int treeot_tree_order(int64_t n, const int64_t *parent, int64_t root, int64_t *order,
                      int64_t *depth, int64_t *work_i)
{
    return tree_order(n, parent, root, order, depth, work_i);
}

/* subtree_sums of _kernels.py: out goes from vertex values to subtree sums. */
static void subtree_sums(int64_t n, const int64_t *parent, const int64_t *order, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i], p = parent[v];
        if (p >= 0)
            out[p] += out[v];
    }
}

void treeot_subtree_sums(int64_t n, const int64_t *parent, const int64_t *order, double *out)
{
    subtree_sums(n, parent, order, out);
}

void treeot_tree_potential(int64_t n, const int64_t *parent, const int64_t *order,
                           const double *wpar, const double *xi_cum, double sign_at_zero,
                           double *u)
{
    tree_potential(n, parent, order, wpar, xi_cum, sign_at_zero, u);
}

/* balanced_subtree of _kernels.py: *found is 1 when one of the samples
 * Wilson trees has a non-root vertex whose subtree sum of xi is at most tol
 * in magnitude, else 0. work_i holds 7n + 1 slots (parent, order, depth and
 * tree_order's work), work_d 2n (wpar and the sums) and in_tree n bytes.
 * Returns Wilson's status. */
int treeot_balanced_subtree(
    int64_t n, const int64_t *indptr, const int64_t *indices, const double *adj_w,
    bitgen_t *bg, const double *xi, int64_t samples, double tol, int64_t *work_i,
    double *work_d, uint8_t *in_tree, int64_t *found)
{
    int64_t *parent = work_i, *order = work_i + n, *depth = work_i + 2 * n;
    double *wpar = work_d, *sums = work_d + n;
    *found = 0;
    for (int64_t k = 0; k < samples; k++) {
        int64_t root;
        const int status = wilson(n, indptr, indices, adj_w, bg, parent, wpar, in_tree, &root);
        if (status != CHAIN_OK)
            return status;
        tree_order(n, parent, root, order, depth, work_i + 3 * n); /* a Wilson tree is rooted at root */
        memcpy(sums, xi, (size_t)n * sizeof *sums);
        subtree_sums(n, parent, order, sums);
        for (int64_t v = 0; v < n; v++)
            if (v != root && fabs(sums[v]) <= tol) {
                *found = 1;
                return CHAIN_OK;
            }
    }
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

/* network_simplex of _kernels.py. Nodes 0..n-1 have supply (negative for
 * demand), arc k runs tail[k] -> head[k] at cost[k]; the artificial root is
 * node n and arc m + v is v's artificial arc. Writes the m arc flows into
 * flow, the n potentials into pi and the pivot count into out_pivots.
 * work_d holds m + 2 n + 1 slots (all flows, then the potentials' real
 * parts), work_i 7 (n + 1) (parent, pred, up, M counts, depth, seen,
 * stack). Returns CHAIN_OK, FLOW_BAD_COST, FLOW_BUDGET or FLOW_INFEASIBLE. */
int treeot_network_simplex(int64_t n, int64_t m, const double *supply, const int64_t *tail,
                           const int64_t *head, const double *cost, double price_rtol,
                           double *flow, double *pi, double *work_d, int64_t *work_i,
                           int64_t *out_pivots)
{
    double cmax = 0.0;
    *out_pivots = 0;
    for (int64_t k = 0; k < m; k++) {
        if (!(cost[k] >= 0.0 && cost[k] < INFINITY))
            return FLOW_BAD_COST;
        if (cost[k] > cmax)
            cmax = cost[k];
    }
    const double tol = price_rtol * cmax;
    const int64_t root = n;
    double *fl = work_d, *pr = work_d + m + n;
    int64_t *parent = work_i, *pred = parent + (n + 1), *up = pred + (n + 1);
    int64_t *pm = up + (n + 1), *depth = pm + (n + 1), *seen = depth + (n + 1);
    int64_t *stack = seen + (n + 1);
    memset(fl, 0, (size_t)m * sizeof *fl);
    for (int64_t v = 0; v < n; v++) {
        parent[v] = root;
        pred[v] = m + v;
        up[v] = supply[v] >= 0.0;
        fl[m + v] = up[v] ? supply[v] : -supply[v];
    }
    parent[root] = -1;
    pred[root] = -1;
    up[root] = 0;
    for (int64_t v = 0; v <= n; v++) {
        pr[v] = 0.0;
        pm[v] = 0;
        depth[v] = 0;
        seen[v] = 0;
    }
    int64_t block = 1; /* ceil(sqrt(m)), at least 1 */
    while (block * block < m)
        block++;
    const int64_t blocks = (m + block - 1) / block;
    int64_t next_block = 0;
    const int64_t guard = 10 * (n + m) + 100;
    int64_t pivots = 0;
    for (;;) {
        /* potentials and depths, each node after its parent */
        seen[root] = pivots + 1;
        for (int64_t v = 0; v < n; v++) {
            int64_t k = 0;
            for (int64_t u = v; seen[u] != pivots + 1; u = parent[u])
                stack[k++] = u;
            while (k) {
                const int64_t u = stack[--k], p = parent[u], e = pred[u];
                if (e >= m) {
                    pr[u] = pr[p];
                    pm[u] = up[u] ? pm[p] + 1 : pm[p] - 1;
                } else if (up[u]) {
                    pr[u] = cost[e] + pr[p];
                    pm[u] = pm[p];
                } else {
                    pr[u] = pr[p] - cost[e];
                    pm[u] = pm[p];
                }
                depth[u] = depth[p] + 1;
                seen[u] = pivots + 1;
            }
        }

        int64_t enter = -1, best_m = 0;
        double best_r = -tol;
        for (int64_t step = 0; step < blocks; step++) {
            const int64_t b = (next_block + step) % blocks;
            const int64_t end = (b + 1) * block < m ? (b + 1) * block : m;
            for (int64_t e = b * block; e < end; e++) {
                const int64_t t = tail[e], h = head[e];
                const int64_t rm = pm[h] - pm[t];
                if (rm > best_m)
                    continue;
                const double rr = cost[e] - pr[t] + pr[h];
                if (rm < best_m || rr < best_r) {
                    best_m = rm;
                    best_r = rr;
                    enter = e;
                }
            }
            if (enter >= 0) {
                next_block = (b + 1) % blocks;
                break;
            }
        }
        if (enter < 0)
            break;
        if (pivots == guard) {
            *out_pivots = pivots;
            return FLOW_BUDGET;
        }
        pivots++;

        const int64_t p = tail[enter], q = head[enter];
        int64_t a = p, b = q;
        while (a != b) {
            if (depth[a] >= depth[b])
                a = parent[a];
            if (depth[b] > depth[a])
                b = parent[b];
        }
        const int64_t join = a;
        /* Cunningham's leaving arc: on q's side the blocking arc nearest the
         * join, else on p's the one nearest p */
        double delta = INFINITY;
        int64_t out = -1, cut = p, graft = q;
        for (int64_t u = p; u != join; u = parent[u])
            if (up[u] && fl[pred[u]] < delta) {
                delta = fl[pred[u]];
                out = u;
            }
        for (int64_t u = q; u != join; u = parent[u])
            if (!up[u] && fl[pred[u]] <= delta) {
                delta = fl[pred[u]];
                out = u;
                cut = q;
                graft = p;
            }
        if (delta > 0.0) {
            fl[enter] += delta;
            for (int64_t u = p; u != join; u = parent[u]) {
                if (up[u])
                    fl[pred[u]] -= delta;
                else
                    fl[pred[u]] += delta;
            }
            for (int64_t u = q; u != join; u = parent[u]) {
                if (up[u])
                    fl[pred[u]] += delta;
                else
                    fl[pred[u]] -= delta;
            }
        }
        /* hang the cut side from the entering arc */
        int64_t v = cut, new_parent = graft, new_arc = enter;
        for (;;) {
            const int64_t old_parent = parent[v], old_arc = pred[v];
            parent[v] = new_parent;
            pred[v] = new_arc;
            up[v] = tail[new_arc] == v;
            if (v == out)
                break;
            new_parent = v;
            new_arc = old_arc;
            v = old_parent;
        }
    }

    *out_pivots = pivots;
    for (int64_t v = 0; v < n; v++)
        if (pm[v] != pm[0])
            return FLOW_INFEASIBLE;
    memcpy(flow, fl, (size_t)m * sizeof *flow);
    memcpy(pi, pr, (size_t)n * sizeof *pi);
    return CHAIN_OK;
}

/* tree_pairs of _kernels.py. With mass NULL, out[i] is the tree distance of
 * pair i; otherwise out holds 2 n zeros and gains mass[i] at out[a] for
 * every edge pair i climbs from child a and at out[n + b] for every edge it
 * descends to child b. Returns CHAIN_OK or TREE_PAIR_APART. */
int treeot_tree_pairs(int64_t n, const int64_t *parent, const int64_t *depth, const double *wpar,
                      int64_t k, const int64_t *xs, const int64_t *ys, const double *mass,
                      double *out)
{
    for (int64_t i = 0; i < k; i++) {
        int64_t a = xs[i], b = ys[i], rounds = 0;
        double total = 0.0;
        while (a != b) {
            const int move_a = depth[a] >= depth[b], move_b = depth[b] >= depth[a];
            if ((move_a && parent[a] < 0) || (move_b && parent[b] < 0) || rounds == n)
                return TREE_PAIR_APART;
            rounds++;
            if (mass == NULL) {
                total += (move_a ? wpar[a] : 0.0) + (move_b ? wpar[b] : 0.0);
            } else {
                if (move_a)
                    out[a] += mass[i];
                if (move_b)
                    out[n + b] += mass[i];
            }
            if (move_a)
                a = parent[a];
            if (move_b)
                b = parent[b];
        }
        if (mass == NULL)
            out[i] = total;
    }
    return CHAIN_OK;
}

/* (da, va) before (db, vb): distance first, then vertex id. */
static int key_before(double da, int64_t va, double db, int64_t vb)
{
    return da < db || (da == db && va < vb);
}

/* Push (d, v) onto the binary min-heap of keys hd/hv[0..size). */
static int64_t key_push(double *hd, int64_t *hv, int64_t size, double d, int64_t v)
{
    int64_t i = size;
    while (i > 0) {
        const int64_t up = (i - 1) / 2;
        if (!key_before(d, v, hd[up], hv[up]))
            break;
        hd[i] = hd[up];
        hv[i] = hv[up];
        i = up;
    }
    hd[i] = d;
    hv[i] = v;
    return size + 1;
}

/* Drop the smallest key of the binary min-heap hd/hv[0..size). */
static int64_t key_pop(double *hd, int64_t *hv, int64_t size)
{
    size--;
    const double d = hd[size];
    const int64_t v = hv[size];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= size)
            break;
        if (c + 1 < size && key_before(hd[c + 1], hv[c + 1], hd[c], hv[c]))
            c++;
        if (!key_before(hd[c], hv[c], d, v))
            break;
        hd[i] = hd[c];
        hv[i] = hv[c];
        i = c;
    }
    if (size > 0) {
        hd[i] = d;
        hv[i] = v;
    }
    return size;
}

/* pair_distances of _kernels.py: out[by_source[q]] is the shortest-path
 * distance of that pair. dist holds n slots, stamps 3 n zeros (seen,
 * settled, wanted) and heap_d/heap_v m + 1 keys: a run pushes its source
 * and then at most once per arc, since each vertex is settled once.
 * Returns CHAIN_OK, PATH_BAD_WEIGHT or PATH_UNREACHED. */
int treeot_pair_distances(int64_t n, const int64_t *indptr, const int64_t *indices,
                          const double *adj_w, int64_t k, const int64_t *xs, const int64_t *ys,
                          const int64_t *by_source, double *dist, int64_t *stamps, double *heap_d,
                          int64_t *heap_v, double *out)
{
    for (int64_t e = 0; e < indptr[n]; e++)
        if (!(adj_w[e] >= 0.0 && adj_w[e] < INFINITY))
            return PATH_BAD_WEIGHT;
    int64_t *seen = stamps, *settled = stamps + n, *wanted = stamps + 2 * n;
    int64_t run = 0;
    for (int64_t i = 0, j; i < k; i = j) {
        run++;
        const int64_t s = xs[by_source[i]];
        int64_t left = 0;
        for (j = i; j < k && xs[by_source[j]] == s; j++) {
            const int64_t t = ys[by_source[j]];
            if (wanted[t] != run) {
                wanted[t] = run;
                left++;
            }
        }
        dist[s] = 0.0;
        seen[s] = run;
        int64_t size = key_push(heap_d, heap_v, 0, 0.0, s);
        while (left > 0) {
            if (size == 0)
                return PATH_UNREACHED;
            const double d = heap_d[0];
            const int64_t v = heap_v[0];
            size = key_pop(heap_d, heap_v, size);
            if (settled[v] == run)
                continue;
            settled[v] = run;
            if (wanted[v] == run && --left == 0)
                break;
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                const int64_t u = indices[e];
                const double nd = d + adj_w[e];
                if (seen[u] != run || nd < dist[u]) {
                    seen[u] = run;
                    dist[u] = nd;
                    size = key_push(heap_d, heap_v, size, nd, u);
                }
            }
        }
        for (int64_t q = i; q < j; q++)
            out[by_source[q]] = dist[ys[by_source[q]]];
    }
    return CHAIN_OK;
}
