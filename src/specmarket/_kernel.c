/* One market's whole horizon, bit for bit as specmarket.market.step.
 *
 * Built and loaded by specmarket._kernel; see its docstring for the rules
 * that keep the bits equal to numpy's: the pairwise total, the order of the
 * draws and the unfused settle updates (compile with -ffp-contract=off).
 */

#include <stddef.h>
#include <stdint.h>

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

#define PW_BLOCKSIZE 128

/* numpy's DOUBLE_pairwise_sum */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) {
            r[j] = a[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                r[j] += a[i + j];
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.add.reduce of a contiguous float64 array */
double specmarket_total(const double *a, int64_t n)
{
    return 0.0 + pairwise(a, n);
}

/* searchsorted(cum, u, side="right"): the number of values <= u. They form a
 * prefix for any u in [0, 1): cum is a cumulative sum of nonnegative weights,
 * and its last value is set to 1.0, which exceeds u as does any value rounded
 * above it. */
static int64_t upper_bound(const double *cum, int64_t n, double u)
{
    const double *base = cum;
    while (n > 1) {
        int64_t half = n >> 1;
        base = base[half] <= u ? base + half : base;
        n -= half;
    }
    return (base - cum) + (*base <= u);
}

/* Steps a market from its initial state for `horizon` steps.
 *
 * n agents, the first k of them producers, the first n_random of those
 * drawing a fresh bit every step. endo_states is the size of the
 * endogenous part of the information (0 if none); cum, of length n_cum,
 * holds the cumulative exogenous weights (NULL if none), and queue receives
 * each refill of n_queue states. money and stocks are updated in place;
 * m and s are scratch of length n. Records prices, states, the speculators'
 * capital sum and, if agent_caps is not NULL, each speculator's capital.
 */
void specmarket_run(bitgen_t *bg, int64_t horizon, int64_t n, int64_t k, int64_t n_random,
                    double gamma, double eps, int64_t endo_states,
                    const double *cum, int64_t n_cum, int64_t *queue, int64_t n_queue,
                    const uint8_t *strategies, int64_t mu,
                    double *money, double *stocks, double *m, double *s,
                    double *prices, int64_t *mus, double *capital, double *agent_caps)
{
    const int64_t n_spec = n - k;
    double price = 1.0, before = 1.0;
    int64_t endo = 0;
    for (int64_t t = 0; t < horizon; t++) {
        if (t > 0) {
            if (endo_states) {
                int64_t bit;
                if (price > before) {
                    bit = 1;
                } else if (price < before) {
                    bit = 0;
                } else {
                    bit = bg->next_double(bg->state) < 0.5;
                }
                endo = ((mu % endo_states) << 1 | bit) % endo_states;
            }
            if (cum) {
                int64_t pos = (t - 1) % n_queue;
                if (pos == 0) {
                    for (int64_t i = 0; i < n_queue; i++) {
                        queue[i] = upper_bound(cum, n_cum, bg->next_double(bg->state));
                    }
                }
                mu = endo_states ? queue[pos] * endo_states + endo : queue[pos];
            } else {
                mu = endo;
            }
        }
        mus[t] = mu;
        const uint8_t *row = strategies + mu * n;
        for (int64_t i = 0; i < n_random; i++) {
            int buy = bg->next_double(bg->state) < 0.5;
            m[i] = (money[i] * gamma) * (double)buy;
            s[i] = (stocks[i] * gamma) * (double)!buy;
        }
        for (int64_t i = n_random; i < n; i++) {
            m[i] = (money[i] * gamma) * (double)row[i];
            s[i] = (stocks[i] * gamma) * (double)!row[i];
        }
        before = price;
        price = (specmarket_total(m, n) + eps) / (specmarket_total(s, n) + eps);
        prices[t] = price;
        for (int64_t i = k; i < n; i++) {
            double tmp = s[i] * price;
            tmp -= m[i];
            money[i] += tmp;
        }
        for (int64_t i = k; i < n; i++) {
            double tmp = m[i] / price;
            tmp -= s[i];
            stocks[i] += tmp;
        }
        capital[t] = specmarket_total(money + k, n_spec) + specmarket_total(stocks + k, n_spec);
        if (agent_caps) {
            double *caps = agent_caps + t * n_spec;
            for (int64_t i = 0; i < n_spec; i++) {
                caps[i] = money[k + i] + stocks[k + i];
                caps[i] /= 2.0;
            }
        }
    }
}
