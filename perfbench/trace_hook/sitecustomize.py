"""Start the layer tracer in every Python process that the benchmark traces.

The benchmark puts this directory at the front of PYTHONPATH and sets
PERFBENCH_TRACE_DIR for a traced child, so the interpreter imports this
module at start-up. The variable is inherited, so CLI processes that the
child itself starts (`verify` criterion 9) are traced as well. Without the
variable this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import layer_trace

    layer_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
