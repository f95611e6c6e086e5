"""Schema-level declarations that ride alongside a graph.

These steer the canonicalizer (event cardinality), the merge engine
(attribute modes), alignment (essential event types) and role inference
(role-concept definitions).  None of them add edges of their own.  A
FUNCTIONAL slot that ends up holding several values is reported to the
caller of either engine as a :class:`ValueConflict`.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Optional, Tuple, Union

from .model import (
    PARTICIPANT_RELATIONS,
    NodeId,
    PrimitiveRelation,
    RoleConceptDef,
    _equal_to_own_type,
    _Frozen,
    _set_field,
)


class Cardinality(str, Enum):
    ONE = "ONE"
    MANY = "MANY"


class AttrMode(str, Enum):
    FUNCTIONAL = "FUNCTIONAL"
    MULTI = "MULTI"


@_equal_to_own_type
class AttrSlot(NamedTuple):
    """Rule object slot: the object becomes a value literal of
    ``value_type`` hanging off an attribute instance of ``attr_type``."""

    attr_type: NodeId
    value_type: NodeId


@_equal_to_own_type
class ValueConflict(NamedTuple):
    """A FUNCTIONAL slot left holding more than one distinct value, which
    the canonicalizer met in one run or merge could not settle by
    revision.  Every value stays in the graph; the conflict is only
    flagged."""

    event: NodeId
    attr_type: NodeId
    literals: Tuple[str, ...]


class ParticipantSlot(_Frozen):
    """Rule object slot: the object becomes an entity attached to the event
    through ``role``."""

    __slots__ = _fields = ("role",)

    def __init__(self, role: PrimitiveRelation):
        if role not in PARTICIPANT_RELATIONS:
            raise ValueError(f"object role must be a participant relation, got {role.value}")
        _set_field(self, "role", role)


ObjectSlot = Union[AttrSlot, ParticipantSlot]


class ReificationRule(_Frozen):
    """Maps one flat relation name onto an event pattern."""

    __slots__ = _fields = ("rel_name", "event_type", "subject_role", "object_slot")

    def __init__(self, rel_name: str, event_type: NodeId, subject_role: PrimitiveRelation, object_slot: ObjectSlot):
        if subject_role not in PARTICIPANT_RELATIONS:
            raise ValueError(f"subject role must be a participant relation, got {subject_role.value}")
        _set_field(self, "rel_name", rel_name)
        _set_field(self, "event_type", event_type)
        _set_field(self, "subject_role", subject_role)
        _set_field(self, "object_slot", object_slot)

    def referenced_types(self) -> Tuple[NodeId, ...]:
        slot = self.object_slot
        if isinstance(slot, AttrSlot):
            return (self.event_type, slot.attr_type, slot.value_type)
        return (self.event_type,)


class SchemaDeclarations(_Frozen):
    """The declaration block of a document or rule file."""

    __slots__ = _fields = ("essential", "cardinality", "attr_modes", "roles")

    def __init__(
        self,
        essential: frozenset = frozenset(),
        cardinality: Optional[Mapping[NodeId, Cardinality]] = None,
        attr_modes: Optional[Mapping[tuple, AttrMode]] = None,
        roles: Tuple[RoleConceptDef, ...] = (),
    ):
        _set_field(self, "essential", essential)
        _set_field(self, "cardinality", {} if cardinality is None else cardinality)
        _set_field(self, "attr_modes", {} if attr_modes is None else attr_modes)
        _set_field(self, "roles", roles)

    def card_of(self, event_type: NodeId) -> Cardinality:
        """Event cardinality; undeclared types coalesce (ONE)."""
        return self.cardinality.get(event_type, Cardinality.ONE)

    def mode_of(self, event_type: NodeId, attr_type: NodeId) -> AttrMode:
        """Attribute slot mode; undeclared slots accumulate (MULTI)."""
        return self.attr_modes.get((event_type, attr_type), AttrMode.MULTI)

    def referenced_types(self) -> frozenset:
        types = set(self.essential)
        types.update(self.cardinality)
        for event_type, attr_type in self.attr_modes:
            types.add(event_type)
            types.add(attr_type)
        for role in self.roles:
            types.add(role.base_type)
            types.add(role.occurrent_type)
        return frozenset(types)

    def merged_with(self, other: "SchemaDeclarations") -> "SchemaDeclarations":
        """Union of two declaration blocks; on key clashes this side wins."""
        cardinality = dict(other.cardinality)
        cardinality.update(self.cardinality)
        attr_modes = dict(other.attr_modes)
        attr_modes.update(self.attr_modes)
        seen = {role.role_name for role in self.roles}
        roles = tuple(self.roles) + tuple(r for r in other.roles if r.role_name not in seen)
        return SchemaDeclarations(
            essential=self.essential | other.essential,
            cardinality=cardinality,
            attr_modes=attr_modes,
            roles=roles,
        )
