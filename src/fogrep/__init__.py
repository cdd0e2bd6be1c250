"""fogrep: a discrete-event simulator of a fog data store with mobile
clients, plus the client-side Markov prediction library it evaluates."""

from .errors import (ConfigError, DataError, EmptyTraceError, FogrepError,
                     TopologyError, TraceFormatError, TraceOverlapError,
                     UndefinedMetricError)
from .markov import (EOT, KINDS, MarkovPredictor, Prediction, bucketize,
                     dynamic_topn, make_model)
from .metrics import (MetricsReport, availability, availability_series,
                      compute_report, excess_data)
from .policies import Delete, PolicyConfig, Replicate, ReplicaPolicy, Retain
from .simengine import ReplicaLedger, RunResult, run, snapshot_memory
from .startup import (PauseStats, PlmmModel, median_pause, plmm_predict,
                      plmm_retention, record_pause, short_pause_retention)
from .topology import (BEIJING_BBOX, FixedDelay, FlowGraph, FogNode, Link,
                       Topology, build_complex_network, build_grid,
                       dump_topology, load_topology, nearest_node,
                       nearest_nodes, transfer_time)
from .traces import (ClientTimeline, GeoPoint, NodeVisit, Pause, Session,
                     SyntheticSpec, Track, build_timeline, map_to_node_visits,
                     parse_plt, read_visits_csv, sessionize, synth_generate,
                     write_visits_csv)

__version__ = "0.1.0"
