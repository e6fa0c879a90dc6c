/* CPU affinity for the timed loop: the CPUs this process may run on,
   read once, and the calling thread bound to one of them or back to
   all of them. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

static cpu_set_t allowed;
static int n_allowed = -1;

static void read_allowed(void)
{
  if (n_allowed >= 0) return;
  CPU_ZERO(&allowed);
  n_allowed = sched_getaffinity(0, sizeof allowed, &allowed) == 0 ? CPU_COUNT(&allowed) : 0;
}

value perfbench_cpu_count(value unit)
{
  (void)unit;
  read_allowed();
  return Val_int(n_allowed);
}

/* Bind the calling thread to allowed CPU [k mod count], or to every
   allowed CPU when [k] < 0.  False when the kernel refuses. */
value perfbench_pin_cpu(value k)
{
  cpu_set_t set;
  int want = Int_val(k), seen = 0;
  read_allowed();
  if (n_allowed <= 0) return Val_false;
  if (want < 0) return Val_bool(sched_setaffinity(0, sizeof allowed, &allowed) == 0);
  want %= n_allowed;
  CPU_ZERO(&set);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &allowed) && seen++ == want) {
      CPU_SET(c, &set);
      break;
    }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
