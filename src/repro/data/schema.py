"""Feature schemas for the NSL-KDD and UNSW-NB15 datasets.

The real datasets cannot be shipped in this offline reproduction, so
:mod:`repro.data.generator` synthesises records against the schemas defined
here.  The schemas reproduce the structural properties the paper's pipeline
depends on:

* the split between numeric and categorical columns;
* the categorical cardinalities — after one-hot encoding the NSL-KDD records
  expand to 121 features and the UNSW-NB15 records to 196 features, matching
  the input shapes ``(1, 121)`` and ``(1, 196)`` reported in Section V-C;
* the class taxonomy (5 classes for NSL-KDD, 10 for UNSW-NB15) and the heavy
  class imbalance of the originals.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "CategoricalFeature",
    "NumericFeature",
    "DatasetSchema",
    "NSLKDD_SCHEMA",
    "UNSWNB15_SCHEMA",
    "get_schema",
    "EVENT_CATEGORICAL_BINDINGS",
    "WELL_KNOWN_PORTS",
    "service_port",
]

#: Packet-trace provenance of each categorical column: which
#: :class:`repro.ingest.PacketEvents` field carries the value and whether a
#: flow's ``first`` or ``last`` packet is authoritative.  Protocol and
#: service are properties of the connection attempt (first packet); the
#: NSL-KDD ``flag`` and UNSW-NB15 ``state`` columns summarise how the
#: connection *ended* (last packet).
EVENT_CATEGORICAL_BINDINGS: Dict[str, Tuple[str, str]] = {
    "protocol_type": ("protocol", "first"),
    "proto": ("protocol", "first"),
    "service": ("service", "first"),
    "flag": ("state", "last"),
    "state": ("state", "last"),
}

#: IANA(-ish) destination ports for the service names the two corpora use;
#: services without a well-known port get a stable CRC-derived one.
WELL_KNOWN_PORTS: Dict[str, int] = {
    "http": 80, "http_443": 443, "http_8001": 8001, "smtp": 25,
    "ftp": 21, "ftp_data": 20, "ftp-data": 20, "telnet": 23, "ssh": 22,
    "domain": 53, "domain_u": 53, "dns": 53, "pop_3": 110, "pop3": 110,
    "pop_2": 109, "imap4": 143, "snmp": 161, "ldap": 389, "ssl": 443,
    "irc": 6667, "IRC": 6667, "X11": 6000, "dhcp": 67, "radius": 1812,
    "nntp": 119, "whois": 43, "finger": 79, "auth": 113, "time": 37,
    "daytime": 13, "discard": 9, "echo": 7, "systat": 11, "netstat": 15,
    "exec": 512, "login": 513, "shell": 514, "printer": 515, "efs": 520,
    "klogin": 543, "kshell": 544, "sql_net": 1521, "bgp": 179,
    "sunrpc": 111, "tftp_u": 69, "netbios_ns": 137, "netbios_dgm": 138,
    "netbios_ssn": 139, "gopher": 70, "uucp": 540, "courier": 530,
}


def service_port(service: str) -> int:
    """Deterministic destination port for a service name.

    Well-known services map to their registered port; everything else gets
    a stable ephemeral port derived from ``zlib.crc32`` (*not* ``hash()``,
    which is randomised per process and would break cross-process
    determinism of lowered event traces).
    """
    port = WELL_KNOWN_PORTS.get(service)
    if port is not None:
        return port
    return 1024 + zlib.crc32(str(service).encode("utf-8")) % 48_000


@dataclass(frozen=True)
class NumericFeature:
    """A numeric column.

    Parameters
    ----------
    name:
        Column name (taken from the real dataset's documentation).
    distribution:
        Shape family used by the generator: ``"lognormal"`` for heavy-tailed
        counters (bytes, durations, counts) or ``"normal"`` for rates and
        bounded statistics.
    """

    name: str
    distribution: str = "normal"


@dataclass(frozen=True)
class CategoricalFeature:
    """A categorical column with a fixed set of possible values."""

    name: str
    values: Tuple[str, ...]

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DatasetSchema:
    """Full description of a dataset: columns, classes and class priors."""

    name: str
    numeric_features: Tuple[NumericFeature, ...]
    categorical_features: Tuple[CategoricalFeature, ...]
    classes: Tuple[str, ...]
    class_priors: Dict[str, float]
    normal_class: str = "normal"
    total_records: int = 0

    def __post_init__(self) -> None:
        if self.normal_class not in self.classes:
            raise ValueError(
                f"normal class {self.normal_class!r} missing from classes {self.classes}"
            )
        missing = [c for c in self.classes if c not in self.class_priors]
        if missing:
            raise ValueError(f"class priors missing for {missing}")
        total = sum(self.class_priors.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"class priors must sum to 1, got {total}")

    @property
    def numeric_names(self) -> List[str]:
        return [feature.name for feature in self.numeric_features]

    @property
    def categorical_names(self) -> List[str]:
        return [feature.name for feature in self.categorical_features]

    @property
    def attack_classes(self) -> List[str]:
        return [c for c in self.classes if c != self.normal_class]

    @property
    def num_raw_features(self) -> int:
        """Number of columns before one-hot encoding."""
        return len(self.numeric_features) + len(self.categorical_features)

    @property
    def num_encoded_features(self) -> int:
        """Number of columns after one-hot encoding every categorical feature."""
        return len(self.numeric_features) + sum(
            feature.cardinality for feature in self.categorical_features
        )

    def event_binding(self, column: str) -> Tuple[str, str]:
        """Packet-trace provenance of a categorical column: the
        :class:`repro.ingest.PacketEvents` field carrying it and whether a
        flow's ``"first"`` or ``"last"`` packet is authoritative."""
        if column not in self.categorical_names:
            raise KeyError(
                f"{column!r} is not a categorical column of {self.name!r}"
            )
        try:
            return EVENT_CATEGORICAL_BINDINGS[column]
        except KeyError as exc:
            raise KeyError(
                f"no event binding declared for categorical column {column!r}"
            ) from exc


# --------------------------------------------------------------------------- #
# NSL-KDD
# --------------------------------------------------------------------------- #
# The 38 numeric columns of the real dataset (KDD'99 connection features).
_NSLKDD_NUMERIC = tuple(
    NumericFeature(name, distribution)
    for name, distribution in [
        ("duration", "lognormal"),
        ("src_bytes", "lognormal"),
        ("dst_bytes", "lognormal"),
        ("land", "normal"),
        ("wrong_fragment", "lognormal"),
        ("urgent", "lognormal"),
        ("hot", "lognormal"),
        ("num_failed_logins", "lognormal"),
        ("logged_in", "normal"),
        ("num_compromised", "lognormal"),
        ("root_shell", "normal"),
        ("su_attempted", "normal"),
        ("num_root", "lognormal"),
        ("num_file_creations", "lognormal"),
        ("num_shells", "lognormal"),
        ("num_access_files", "lognormal"),
        ("num_outbound_cmds", "normal"),
        ("is_host_login", "normal"),
        ("is_guest_login", "normal"),
        ("count", "lognormal"),
        ("srv_count", "lognormal"),
        ("serror_rate", "normal"),
        ("srv_serror_rate", "normal"),
        ("rerror_rate", "normal"),
        ("srv_rerror_rate", "normal"),
        ("same_srv_rate", "normal"),
        ("diff_srv_rate", "normal"),
        ("srv_diff_host_rate", "normal"),
        ("dst_host_count", "lognormal"),
        ("dst_host_srv_count", "lognormal"),
        ("dst_host_same_srv_rate", "normal"),
        ("dst_host_diff_srv_rate", "normal"),
        ("dst_host_same_src_port_rate", "normal"),
        ("dst_host_srv_diff_host_rate", "normal"),
        ("dst_host_serror_rate", "normal"),
        ("dst_host_srv_serror_rate", "normal"),
        ("dst_host_rerror_rate", "normal"),
        ("dst_host_srv_rerror_rate", "normal"),
    ]
)

# 69 services are modelled (a representative subset of the real dataset's ~70)
# so that 38 numeric + 3 protocols + 69 services + 11 flags = 121 encoded
# features, matching the paper's (1, 121) NSL-KDD input shape.
_NSLKDD_SERVICES = (
    "http", "smtp", "ftp", "ftp_data", "telnet", "ssh", "domain_u", "domain",
    "private", "ecr_i", "eco_i", "finger", "auth", "pop_3", "pop_2", "imap4",
    "other", "whois", "time", "nntp", "netbios_ns", "netbios_dgm", "netbios_ssn",
    "uucp", "uucp_path", "vmnet", "mtp", "sunrpc", "gopher", "remote_job",
    "link", "ctf", "supdup", "name", "daytime", "discard", "echo", "systat",
    "netstat", "ssl", "csnet_ns", "iso_tsap", "hostnames", "exec", "login",
    "shell", "printer", "efs", "courier", "klogin", "kshell", "nnsp", "http_443",
    "ldap", "sql_net", "X11", "IRC", "Z39_50", "urp_i", "urh_i", "red_i",
    "tim_i", "pm_dump", "tftp_u", "rje", "bgp", "http_8001", "aol", "harvest",
)

_NSLKDD_FLAGS = (
    "SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "S3", "RSTOS0", "OTH",
)

NSLKDD_SCHEMA = DatasetSchema(
    name="nsl-kdd",
    numeric_features=_NSLKDD_NUMERIC,
    categorical_features=(
        CategoricalFeature("protocol_type", ("tcp", "udp", "icmp")),
        CategoricalFeature("service", _NSLKDD_SERVICES),
        CategoricalFeature("flag", _NSLKDD_FLAGS),
    ),
    classes=("normal", "dos", "probe", "r2l", "u2r"),
    class_priors={
        # Proportions of the full (train + test) NSL-KDD corpus.
        "normal": 0.5190,
        "dos": 0.3645,
        "probe": 0.0954,
        "r2l": 0.0204,
        "u2r": 0.0007,
    },
    normal_class="normal",
    total_records=148_516,
)


# --------------------------------------------------------------------------- #
# UNSW-NB15
# --------------------------------------------------------------------------- #
_UNSW_NUMERIC = tuple(
    NumericFeature(name, distribution)
    for name, distribution in [
        ("dur", "lognormal"),
        ("spkts", "lognormal"),
        ("dpkts", "lognormal"),
        ("sbytes", "lognormal"),
        ("dbytes", "lognormal"),
        ("rate", "lognormal"),
        ("sttl", "normal"),
        ("dttl", "normal"),
        ("sload", "lognormal"),
        ("dload", "lognormal"),
        ("sloss", "lognormal"),
        ("dloss", "lognormal"),
        ("sinpkt", "lognormal"),
        ("dinpkt", "lognormal"),
        ("sjit", "lognormal"),
        ("djit", "lognormal"),
        ("swin", "normal"),
        ("stcpb", "lognormal"),
        ("dtcpb", "lognormal"),
        ("dwin", "normal"),
        ("tcprtt", "normal"),
        ("synack", "normal"),
        ("ackdat", "normal"),
        ("smean", "lognormal"),
        ("dmean", "lognormal"),
        ("trans_depth", "lognormal"),
        ("response_body_len", "lognormal"),
        ("ct_srv_src", "lognormal"),
        ("ct_state_ttl", "normal"),
        ("ct_dst_ltm", "lognormal"),
        ("ct_src_dport_ltm", "lognormal"),
        ("ct_dst_sport_ltm", "lognormal"),
        ("ct_dst_src_ltm", "lognormal"),
        ("is_ftp_login", "normal"),
        ("ct_ftp_cmd", "lognormal"),
        ("ct_flw_http_mthd", "lognormal"),
        ("ct_src_ltm", "lognormal"),
        ("ct_srv_dst", "lognormal"),
        ("is_sm_ips_ports", "normal"),
    ]
)

# The real UNSW-NB15 'proto' column has ~130 values.  131 protocol values are
# modelled so that 39 numeric + 131 proto + 13 service + 13 state = 196 encoded
# features, matching the paper's (1, 196) UNSW-NB15 input shape.
_COMMON_PROTOCOLS = (
    "tcp", "udp", "icmp", "arp", "ospf", "igmp", "gre", "sctp", "rsvp", "esp",
    "ah", "pim", "ipv6", "ipv6-frag", "ipv6-icmp", "ipv6-no", "ipv6-opts",
    "ipv6-route", "ip", "ggp", "egp", "swipe", "mobile", "sun-nd", "unas",
)
_UNSW_PROTOCOLS = _COMMON_PROTOCOLS + tuple(
    f"proto_{index:03d}" for index in range(131 - len(_COMMON_PROTOCOLS))
)

_UNSW_SERVICES = (
    "-", "http", "ftp", "ftp-data", "smtp", "pop3", "dns", "snmp", "ssl",
    "ssh", "dhcp", "irc", "radius",
)

_UNSW_STATES = (
    "FIN", "CON", "INT", "REQ", "RST", "ECO", "CLO", "ACC", "PAR", "URN",
    "no", "ECR", "TXD",
)

UNSWNB15_SCHEMA = DatasetSchema(
    name="unsw-nb15",
    numeric_features=_UNSW_NUMERIC,
    categorical_features=(
        CategoricalFeature("proto", _UNSW_PROTOCOLS),
        CategoricalFeature("service", _UNSW_SERVICES),
        CategoricalFeature("state", _UNSW_STATES),
    ),
    classes=(
        "normal",
        "generic",
        "exploits",
        "fuzzers",
        "dos",
        "reconnaissance",
        "analysis",
        "backdoor",
        "shellcode",
        "worms",
    ),
    class_priors={
        # Proportions of the combined UNSW-NB15 train+test partitions.
        "normal": 0.3609,
        "generic": 0.2285,
        "exploits": 0.1728,
        "fuzzers": 0.0941,
        "dos": 0.0635,
        "reconnaissance": 0.0543,
        "analysis": 0.0104,
        "backdoor": 0.0090,
        "shellcode": 0.0059,
        "worms": 0.0006,
    },
    normal_class="normal",
    total_records=257_673,
)

_SCHEMAS = {
    "nsl-kdd": NSLKDD_SCHEMA,
    "nslkdd": NSLKDD_SCHEMA,
    "unsw-nb15": UNSWNB15_SCHEMA,
    "unswnb15": UNSWNB15_SCHEMA,
}


def get_schema(name: str) -> DatasetSchema:
    """Look up a dataset schema by (case-insensitive) name."""
    try:
        return _SCHEMAS[name.lower().replace("_", "-")]
    except KeyError as exc:
        known = ", ".join(sorted({s.name for s in _SCHEMAS.values()}))
        raise ValueError(f"unknown dataset {name!r}; known datasets: {known}") from exc
